"""Integration tests: instrumentation wired through the search pipeline.

The acceptance bar for the observability subsystem:

* counter totals agree **bit-exactly** with the engine's own
  :class:`~repro.engine.EngineReport` accounting;
* fanning groups out to worker processes changes no totals (each chunk
  runs under a worker-side session whose registries ship back and merge
  exactly once) and yields pid-tagged worker span lanes;
* the ``collect="off"`` path costs ≤ 2% of search time (measured by
  counting instrumentation call sites and pricing them at the no-op
  singleton's per-call cost).
"""

import contextlib
import json
import math
import time

import numpy as np
import pytest

from repro import obs
from repro.alphabet import GapPenalty
from repro.app import CudaSW, search_batch
from repro.engine import FaultPolicy
from repro.obs import NO_OP
from repro.obs import context as obs_context
from repro.sequence import Database, Sequence, random_protein


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(11)
    seqs = [
        Sequence.random(f"s{i}", int(n), rng)
        for i, n in enumerate([30, 45, 60, 61, 90, 120, 150, 200, 201, 400])
    ]
    return Database.from_sequences(seqs)


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(12)
    return random_protein(80, rng, id="q-obs")


@pytest.fixture(scope="module")
def long_query():
    """Long enough that the cost model plans striped groups in ``db``
    at group size 4 (the 80-aa query plans none)."""
    rng = np.random.default_rng(13)
    return random_protein(400, rng, id="q-obs-long")


class TestBitExactCounters:
    def test_pack_counters_match_engine_report(self, query, db):
        app = CudaSW()
        app.search(query, db, collect="counters")
        run = app.last_run_report
        er = app.last_engine_report
        assert run is not None and er is not None
        c = run.counters
        assert c["engine.pack.residues"] == er.residues
        assert c["engine.pack.padded_cells"] == er.padded_cells
        assert c["engine.pack.groups"] == er.n_groups
        assert c["engine.pack.sequences"] == len(db)
        assert (
            c["engine.pack.pad_waste_cells"]
            == er.padded_cells - er.residues
        )
        # The run report's engine section is the same accounting.
        assert run.engine["residues"] == c["engine.pack.residues"]
        assert run.engine["padded_cells"] == c["engine.pack.padded_cells"]

    def test_sweep_counters_match_cell_arithmetic(self, query, db):
        app = CudaSW()
        app.search(query, db, collect="counters")
        c = app.last_run_report.counters
        er = app.last_engine_report
        m = len(query)
        assert c["engine.sweep.useful_cells"] == m * er.residues
        assert c["engine.sweep.padded_cells"] == m * er.padded_cells
        assert c["engine.sweep.groups"] == er.n_groups
        assert c["engine.sweep.rows"] == m * er.n_groups
        assert c["engine.executor.groups_dispatched"] == er.n_groups

    def test_full_mode_adds_span_tree(self, query, db):
        app = CudaSW()
        app.search(query, db, collect="full")
        run = app.last_run_report
        phases = {p.split("/")[-1] for p in run.span_seconds()}
        assert {
            "search",
            "query_encode",
            "profile_build",
            "pack",
            "fan_out",
            "sweep",
            "score_scatter",
            "model",
        } <= phases

    def test_worker_fanout_totals_identical_to_serial(self, query, db):
        serial = CudaSW()
        serial.search(query, db, collect="counters", workers=1)
        fanned = CudaSW()
        fanned.search(query, db, collect="counters", workers=2)
        a = dict(serial.last_run_report.counters)
        b = dict(fanned.last_run_report.counters)
        # The fan-out bookkeeping differs; the work accounting must not.
        for extra in (
            "engine.executor.worker_round_trips",
            "engine.executor.pool_fallbacks",
            "engine.executor.fanout_demotions",
        ):
            a.pop(extra, None)
            b.pop(extra, None)
        assert a == b

    def test_scores_unaffected_by_collection(self, query, db):
        app = CudaSW()
        base, _ = app.search(query, db)
        for mode in ("counters", "full"):
            got, _ = app.search(query, db, collect=mode)
            np.testing.assert_array_equal(got.scores, base.scores)

    def test_striped_fanout_counters_identical_to_serial(
        self, long_query, db
    ):
        # Even the data-dependent striped counters (lazy-F rounds,
        # skipped F columns) must agree: workers score under their own
        # sessions and ship the registries back, so the pooled totals
        # are the serial totals.
        policy = FaultPolicy(chunksize=1)
        serial = CudaSW()
        serial.search(
            long_query, db, collect="counters",
            workers=1, group_size=4, fault_policy=policy,
        )
        assert "striped" in serial.last_engine_report.lane_engines
        fanned = CudaSW()
        fanned.search(
            long_query, db, collect="counters",
            workers=2, group_size=4, fault_policy=policy,
        )
        a = dict(serial.last_run_report.counters)
        b = dict(fanned.last_run_report.counters)
        assert b.get("engine.executor.worker_round_trips", 0) > 0
        assert any(k.startswith("engine.striped.") for k in a)
        # Only the scheduling bookkeeping may differ between the paths.
        for extra in (
            "engine.executor.serial_groups",
            "engine.executor.tasks_submitted",
            "engine.executor.worker_round_trips",
            "engine.executor.pool_completed_groups",
            "engine.executor.pool_fallbacks",
            "engine.executor.fanout_demotions",
        ):
            a.pop(extra, None)
            b.pop(extra, None)
        assert a == b


class TestWorkingDtypeCounters:
    """The int16 tier counters say which ladder rung each row/strip
    sweep has, the int8 counters how many of its rows ran below it and
    whether it promoted, the scan-step counters how deep its prefix
    scans went; all are charged where the group is swept, so pooled runs
    report the serial totals."""

    @pytest.mark.parametrize(
        "engine, extra, kernel",
        [
            ("batched", {}, "engine.sweep."),
            ("hetero", {"split_threshold": 100}, "engine.strips."),
        ],
    )
    def test_tier_counters_identical_to_serial(
        self, query, db, engine, extra, kernel
    ):
        runs = []
        for workers in (1, 2):
            app = CudaSW()
            app.search(
                query, db, engine=engine, collect="counters",
                workers=workers, group_size=4,
                fault_policy=FaultPolicy(chunksize=1), **extra,
            )
            counters = app.last_run_report.counters
            runs.append(
                {k: v for k, v in counters.items() if k.startswith(kernel)}
            )
        serial, fanned = runs
        assert app.last_run_report.counters.get(
            "engine.executor.worker_round_trips", 0
        ) > 0
        assert serial == fanned
        # An 80-aa query against subjects up to 400 aa under BLOSUM62:
        # every row and strip sweep fits the int16 rung.
        assert serial[kernel + "int16_groups"] == serial[kernel + "groups"] > 0

    @pytest.mark.parametrize(
        "extra, kernel",
        [({}, "engine.sweep."), ({"split_threshold": 100}, "engine.strips.")],
        ids=["gotoh", "strips"],
    )
    def test_scan_steps_identical_to_serial(self, query, extra, kernel):
        # 32-lane groups sweep on the doubling side of the scan rule, so
        # the steps are charged, and they depend on the scores: workers
        # must report the serial total.
        rng = np.random.default_rng(14)
        wide = Database.from_sequences([
            Sequence.random(f"w{i}", int(n), rng)
            for i, n in enumerate(rng.integers(20, 200, size=96))
        ])
        runs = []
        for workers in (1, 2):
            app = CudaSW()
            app.search(
                query, wide, collect="counters", workers=workers,
                group_size=32, fault_policy=FaultPolicy(chunksize=1), **extra,
            )
            runs.append(app.last_run_report.counters)
        serial, fanned = runs
        assert fanned.get("engine.executor.worker_round_trips", 0) > 0
        steps = serial[kernel + "scan_steps"]
        assert steps == fanned[kernel + "scan_steps"]
        # Random subjects score far below what the full depth of every
        # row, ceil(log2 W) steps with W < 200, would be needed for.
        assert 0 < steps < serial[kernel + "rows"] * math.ceil(math.log2(200))

    @pytest.mark.parametrize(
        "extra, kernel",
        [({}, "engine.sweep."), ({"split_threshold": 100}, "engine.strips.")],
        ids=["gotoh", "strips"],
    )
    def test_int8_counters_identical_to_serial(self, query, extra, kernel):
        # 64-lane groups of 96-200 aa subjects clear the int8 row rule
        # and sweep in int8; a copy of the query, the shortest subject
        # of its kernel, scores past the int8 check and promotes its
        # group mid-sweep, while the rest stay int8 to the last row.
        rng = np.random.default_rng(15)
        subjects = [
            Sequence.random(f"w{i}", int(n), rng)
            for i, n in enumerate(rng.integers(96, 201, size=128))
        ]
        subjects[5] = Sequence("copy", query.codes.copy())
        if kernel == "engine.strips.":
            # A 105-aa copy, past the split and the shortest of the
            # strips kernel's subjects: in its first 64-lane group.
            subjects[90] = Sequence(
                "copy-tail",
                np.concatenate([query.codes, subjects[90].codes[:25]]),
            )
        wide = Database.from_sequences(subjects)
        runs = []
        for workers in (1, 2):
            app = CudaSW()
            app.search(
                query, wide, collect="counters", workers=workers,
                group_size=64, fault_policy=FaultPolicy(chunksize=1), **extra,
            )
            runs.append(app.last_run_report.counters)
        serial, fanned = runs
        assert fanned.get("engine.executor.worker_round_trips", 0) > 0
        for name in ("int8_rows", "promotions"):
            assert serial[kernel + name] == fanned[kernel + name], name
        assert 0 < serial[kernel + "promotions"] < serial[kernel + "groups"]
        rows = serial[kernel + "rows"]
        assert 0 < serial[kernel + "int8_rows"] < rows

    def test_wide_rung_groups_not_counted(self, query, db):
        app = CudaSW(gaps=GapPenalty(rho=2**20, sigma=2**20))
        app.search(query, db, collect="counters")
        counters = app.last_run_report.counters
        assert counters["engine.sweep.groups"] > 0
        assert "engine.sweep.int16_groups" not in counters


class TestWorkerLanes:
    """The acceptance search: workers=2, a plan holding striped groups,
    full collection with memory phases — worker span lanes, populated
    histograms, memory peaks and a loadable Chrome trace."""

    @pytest.fixture(scope="class")
    def run(self, long_query, db):
        app = CudaSW()
        app.search(
            long_query, db, collect="full",
            memory_phases=True, workers=2, group_size=4,
            fault_policy=FaultPolicy(chunksize=1),
        )
        report = app.last_run_report
        assert report is not None
        assert "striped" in report.engine["lane_engines"]
        return report

    def test_worker_lane_spans_present(self, run):
        assert run.worker_lanes
        for pid, spans in run.worker_lanes.items():
            assert pid != run.pid
            assert spans
            assert {s.name for s in spans} == {"sweep"}
        busy = run.worker_lane_seconds()
        assert all(t > 0.0 for lane in busy.values() for t in lane.values())

    def test_registered_histograms_populated(self, run):
        populated = {
            name
            for name, snap in run.histograms.items()
            if snap["count"] > 0
        }
        assert {
            "engine.sweep.group_seconds",
            "engine.pack.group_cells",
            "engine.pack.group_efficiency",
            "engine.striped.lazy_f_rounds",
        } <= populated
        assert len(populated) >= 4

    def test_memory_phase_peaks_recorded(self, run):
        peaks = {
            name: value
            for name, value in run.counters.items()
            if name.startswith("engine.mem.") and name.endswith(".peak_bytes")
        }
        assert peaks and all(v > 0 for v in peaks.values())
        assert run.counters["engine.mem.budget_checks"] == 1
        assert run.counters["engine.mem.budget_predicted_bytes"] > 0

    def test_trace_export_has_distinct_pid_lanes(self, run, tmp_path):
        path = run.write_trace(tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pids = {e["pid"] for e in events}
        assert run.pid in pids
        assert pids == {run.pid, *run.worker_lanes}
        assert len(pids) >= 2
        assert all(e["dur"] >= 0.0 for e in events)

    def test_profile_renders_worker_lanes(self, run):
        text = run.render_profile()
        assert "== worker lanes ==" in text
        assert "== histograms ==" in text


class TestKernelCounters:
    def test_simulate_kernels_fills_kernel_namespace(self, query, db):
        app = CudaSW()
        app.search(query, db, simulate_kernels=True, collect="counters")
        c = app.last_run_report.counters
        kernel_launches = {
            name: value
            for name, value in c.items()
            if name.startswith("kernel.") and name.endswith(".launches")
        }
        assert sum(kernel_launches.values()) == len(db)
        # Every launch ledger carries the Table I transaction split.
        for name in kernel_launches:
            prefix = name[: -len(".launches")]
            assert c[f"{prefix}.cells"] > 0
            assert c[f"{prefix}.global_transactions"] == (
                c[f"{prefix}.global_load_transactions"]
                + c[f"{prefix}.global_store_transactions"]
            )

    def test_model_counters_from_predict(self, query, db):
        app = CudaSW()
        _, report = app.search(query, db, collect="counters")
        c = app.last_run_report.counters
        assert c["model.predict_calls"] == 1
        assert c["model.cells"] == report.total_cells
        assert (
            c["model.inter.sequences"] + c["model.intra.sequences"]
            == len(db)
        )


class TestSessionOwnership:
    def test_off_leaves_no_run_report(self, query, db):
        app = CudaSW()
        app.search(query, db, collect="off")
        assert app.last_run_report is None
        app.search(query, db, collect="counters")
        assert app.last_run_report is not None
        app.search(query, db)  # default off resets it again
        assert app.last_run_report is None

    def test_outer_session_owns_collection(self, query, db):
        app = CudaSW()
        with obs.collect("counters") as instr:
            app.search(query, db, collect="counters")
            # The ambient session owns the data; the app defers to it.
            assert app.last_run_report is None
        er = app.last_engine_report
        assert instr.counters.get("engine.pack.residues") == er.residues

    def test_run_report_meta_describes_search(self, query, db):
        app = CudaSW()
        app.search(query, db, collect="counters", workers=1)
        meta = app.last_run_report.meta
        assert meta["query_id"] == query.id
        assert meta["query_length"] == len(query)
        assert meta["database_sequences"] == len(db)
        assert meta["engine"] == "batched"


class TestSearchBatchCollect:
    def test_campaign_level_report(self, db):
        rng = np.random.default_rng(13)
        queries = [random_protein(40, rng, id=f"q{i}") for i in range(3)]
        app = CudaSW()
        results, batch = search_batch(app, queries, db, collect="counters")
        run = app.last_run_report
        assert run is not None
        assert run.counters["batch.queries"] == 3
        # Three searches' pack counters accumulate in one session.
        er = app.last_engine_report
        assert run.counters["engine.pack.residues"] == 3 * er.residues
        assert run.meta["batch_queries"] == 3
        assert run.meta["campaign_gcups"] == pytest.approx(batch.gcups)

    def test_invalid_collect_rejected(self, db):
        rng = np.random.default_rng(14)
        app = CudaSW()
        q = random_protein(30, rng, id="q")
        with pytest.raises(ValueError):
            search_batch(app, [q], db, collect="everything")
        with pytest.raises(ValueError):
            app.search(q, db, collect="everything")


class _SpyInstrumentation:
    """Counts how many instrumentation calls one search emits.

    Shaped like the no-op singleton (``enabled`` False keeps every
    guarded block skipped), so the call count it records is exactly the
    number of no-op method invocations a ``collect="off"`` search pays.
    """

    mode = "off"
    enabled = False
    memory = False
    counters = None
    histograms = None
    tracer = None

    def __init__(self):
        self.calls = 0

    def span(self, name):
        self.calls += 1
        return contextlib.nullcontext()

    def count(self, name, value=1):
        self.calls += 1

    def observe(self, name, value):
        self.calls += 1

    def count_kernel(self, kernel_name, counts):
        self.calls += 1


class TestOffModeOverhead:
    # "batched" plans the 80-aa query's bulk gotoh; "striped" is the
    # 400-aa query at group size 4, whose plan holds striped groups.
    @pytest.mark.parametrize("kernel", ["batched", "striped"])
    def test_off_mode_overhead_within_two_percent(
        self, query, long_query, db, kernel
    ):
        app = CudaSW()
        if kernel == "striped":
            query = long_query
            search = {"group_size": 4}
        else:
            search = {}

        # 1. How many instrumentation touch-points does one search emit?
        spy = _SpyInstrumentation()
        token = obs_context._ACTIVE.set(spy)
        try:
            app.search(query, db, **search)
        finally:
            obs_context._ACTIVE.reset(token)
        if kernel == "striped":
            assert "striped" in app.last_engine_report.lane_engines
        sites = spy.calls
        assert sites > 0

        # 2. Price one no-op touch-point (span enter/exit is the
        #    costliest shape, so price every site at it).
        reps = 20_000
        start = time.perf_counter()
        for _ in range(reps):
            with NO_OP.span("x"):
                pass
        per_site = (time.perf_counter() - start) / reps

        # 3. Compare against the real search time (best of 3 to shave
        #    scheduler noise; overhead bound is what matters).
        search_seconds = min(
            _timed(lambda: app.search(query, db, **search))
            for _ in range(3)
        )
        overhead = sites * per_site
        assert overhead <= 0.02 * search_seconds, (
            f"off-mode instrumentation cost {overhead * 1e6:.1f}us over "
            f"{sites} sites vs {kernel} search {search_seconds * 1e3:.2f}ms"
        )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
