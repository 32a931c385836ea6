"""Heterogeneous length-threshold dispatch.

``SearchConfig(engine="hetero")`` splits the packed database at a length
threshold — bulk groups go to the gotoh or striped kernel the cost model
picks for the query length, the long tail to the strip-sweep kernel —
and must stay *bit-identical* to the scalar reference at every
threshold, under a worker pool, and across a real SIGKILL-and-resume.
The checkpoint fingerprint must refuse a hetero journal replayed under
a different split (the per-group kernel assignment is part of the
search identity).  The cost model's picks are pinned on the bench
shapes.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.app.threshold import tune_split_threshold
from repro.engine import (
    BatchedEngine,
    CheckpointError,
    SearchConfig,
    pack_database_hetero,
    run_groups,
    score_packed_group_strips,
)
from repro.engine.kernels import plan_groups
from repro.sequence.profile import QueryProfile
from repro.sequence import (
    SWISSPROT_PROFILE,
    Database,
    Sequence,
    random_protein,
    write_fasta,
)
from repro.sw import sw_score_scalar

GP = GapPenalty.cudasw_default()


def _reference(query, db, matrix, gaps):
    return np.array(
        [sw_score_scalar(query, s, matrix, gaps) for s in db],
        dtype=np.int64,
    )


def _bimodal_db(rng, n_short=24, n_long=3):
    """Swiss-Prot-shaped: a short bulk plus a few very long subjects."""
    seqs = [
        Sequence.random(f"s{i}", int(n), rng)
        for i, n in enumerate(rng.integers(20, 300, size=n_short))
    ] + [
        Sequence.random(f"long{i}", int(n), rng)
        for i, n in enumerate(rng.integers(1200, 1500, size=n_long))
    ]
    return Database.from_sequences(seqs)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(81)
    query = random_protein(40, rng, id="Q1")
    db = _bimodal_db(rng)
    return {"query": query, "db": db,
            "reference": _reference(query, db, BLOSUM62, GP)}


class TestHeteroEquivalence:
    def thresholds(self, db):
        lengths = np.sort(db.lengths)
        return (0, 1, int(np.median(lengths)), int(lengths.max()) + 1)

    def test_bit_identical_to_scalar_across_thresholds(self, corpus):
        """{0, 1, median, max+1} covers all-strips, mixed, and
        all-bulk partitions — every one must match the scalar path."""
        db = corpus["db"]
        for t in self.thresholds(db):
            engine = BatchedEngine(
                BLOSUM62, GP,
                SearchConfig(group_size=8, engine="hetero", split_threshold=t),
            )
            scores, report = engine.search(corpus["query"], db)
            assert np.array_equal(scores, corpus["reference"]), t
            assert report.split_threshold == t

    def test_auto_threshold_is_the_tuned_split(self, corpus):
        engine = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=8, engine="hetero", split_threshold="auto"),
        )
        scores, report = engine.search(corpus["query"], corpus["db"])
        assert np.array_equal(scores, corpus["reference"])
        lengths = corpus["db"].lengths
        assert report.split_threshold == tune_split_threshold(
            lengths, group_size=8, query_length=len(corpus["query"])
        )
        # At 40 aa the row sweep beats the strip sweep even on the three
        # 1,200-1,500 aa subjects, so the tuned split keeps every group
        # in the bulk, swept by gotoh.
        assert report.split_threshold == int(lengths.max())
        assert set(report.lane_engines) == {"gotoh"}

    def test_strip_width_variants_bit_identical(self, corpus):
        db = corpus["db"]
        profile = QueryProfile(corpus["query"].codes, BLOSUM62)
        groups = pack_database_hetero(db, 8, 300)
        assert any(g.lane_engine == "strips" for g in groups)
        per_group = run_groups(profile, groups, GP)
        for width in (64, 257, 4096):
            scores = np.full(len(db), -1, dtype=np.int64)
            for g, lane_scores in zip(groups, per_group):
                if g.lane_engine == "strips":
                    lane_scores = score_packed_group_strips(
                        profile, g, GP, strip_width=width
                    )
                scores[g.indices] = lane_scores
            assert np.array_equal(scores, corpus["reference"]), width


class TestHeteroWorkerParity:
    #: Counter namespaces that must not depend on serial-vs-pool
    #: execution (executor bookkeeping legitimately differs).
    PARITY_PREFIXES = (
        "engine.pack.", "engine.dispatch.", "engine.strips.",
        "engine.sweep.", "engine.striped.",
    )

    def _run(self, corpus, workers):
        engine = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=4, engine="hetero", split_threshold=300, workers=workers),
        )
        with obs.collect("counters") as instr:
            scores, _ = engine.search(corpus["query"], corpus["db"])
        counters = {
            k: v for k, v in instr.counters.as_dict().items()
            if k.startswith(self.PARITY_PREFIXES)
        }
        return scores, counters

    def test_workers_2_scores_and_counters_match_serial(self, corpus):
        serial_scores, serial_counters = self._run(corpus, workers=1)
        pool_scores, pool_counters = self._run(corpus, workers=2)
        assert np.array_equal(pool_scores, serial_scores)
        assert np.array_equal(serial_scores, corpus["reference"])
        assert pool_counters == serial_counters
        assert any(
            k.startswith("engine.strips.") for k in pool_counters
        )  # the tail really went through the strip engine


class TestHeteroCheckpointIdentity:
    def test_journal_refused_under_different_threshold(self, corpus, tmp_path):
        """The per-group engine assignment is fingerprinted: a hetero
        journal written at one split must refuse to resume at another."""
        journal = tmp_path / "hetero.wal"
        engine_a = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=8, engine="hetero", split_threshold=300),
        )
        engine_a.search(corpus["query"], corpus["db"], checkpoint=journal)
        engine_b = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=8, engine="hetero", split_threshold=1),
        )
        with pytest.raises(CheckpointError, match="different search"):
            engine_b.search(
                corpus["query"], corpus["db"],
                checkpoint=journal, resume=True,
            )

    def test_same_threshold_resumes_cleanly(self, corpus, tmp_path):
        journal = tmp_path / "same.wal"
        make = lambda: BatchedEngine(
            # noqa: E731
            BLOSUM62, GP,
            SearchConfig(group_size=8, engine="hetero", split_threshold=300),
        )
        make().search(corpus["query"], corpus["db"], checkpoint=journal)
        with obs.collect("counters") as instr:
            scores, _ = make().search(
                corpus["query"], corpus["db"],
                checkpoint=journal, resume=True,
            )
        assert np.array_equal(scores, corpus["reference"])
        c = instr.counters.as_dict()
        assert c.get("engine.checkpoint.groups_recomputed", 0) == 0
        assert c["engine.checkpoint.groups_replayed"] >= 1


#: Crashing child for the mixed-engine kill-and-resume test: a hetero
#: checkpointed search with both lane kernels slowed, so SIGKILL lands
#: between fsync'd journal appends with bulk *and* strip groups in play.
CHILD_SCRIPT = textwrap.dedent(
    """
    import dataclasses, sys, time
    from repro.alphabet import BLOSUM62, GapPenalty
    from repro.engine import LANE_KERNELS, BatchedEngine, SearchConfig
    from repro.sequence import Database, read_fasta_file

    db_path, query_path, journal = sys.argv[1:4]

    def slowed(real):
        def slow(profile, group, gaps, **kwargs):
            time.sleep(0.12)
            return real(profile, group, gaps, **kwargs)
        return slow

    for name in ("striped", "strips"):
        kernel = LANE_KERNELS[name]
        LANE_KERNELS[name] = dataclasses.replace(
            kernel, score=slowed(kernel.score)
        )
    db = Database.from_sequences(read_fasta_file(db_path))
    query = read_fasta_file(query_path)[0]
    BatchedEngine(
        BLOSUM62, GapPenalty.cudasw_default(),
        SearchConfig(group_size=4, engine="hetero", split_threshold=300),
    ).search(query, db, checkpoint=journal)
    """
)


class TestHeteroSigkillResume:
    def test_sigkill_mixed_engine_resume_bit_identical(self, corpus, tmp_path):
        query_path = tmp_path / "query.fasta"
        db_path = tmp_path / "db.fasta"
        write_fasta([corpus["query"]], query_path)
        write_fasta(list(corpus["db"]), db_path)
        journal = tmp_path / "hetero-killed.wal"

        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, str(db_path),
             str(query_path), str(journal)],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__)))),
        )
        try:
            deadline = time.monotonic() + 30.0
            floor = 120 + 60 * 2  # header plus two fsync'd appends
            while time.monotonic() < deadline:
                if journal.exists() and journal.stat().st_size >= floor:
                    break
                time.sleep(0.01)
            else:
                raise AssertionError("journal never grew two records")
        finally:
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL

        make = lambda: BatchedEngine(
            # noqa: E731
            BLOSUM62, GP,
            SearchConfig(group_size=4, engine="hetero", split_threshold=300),
        )
        with obs.collect("counters") as instr:
            scores, report = make().search(
                corpus["query"], corpus["db"],
                checkpoint=journal, resume=True,
            )
        assert np.array_equal(scores, corpus["reference"])
        assert set(report.lane_engines) == {"gotoh", "strips"}
        c = instr.counters.as_dict()
        replayed = c.get("engine.checkpoint.groups_replayed", 0)
        recomputed = c.get("engine.checkpoint.groups_recomputed", 0)
        assert replayed >= 1
        assert recomputed >= 1
        assert replayed + recomputed == report.n_groups


def _tuned(lengths, group_size, **constants):
    """``tune_split_threshold`` with the kernel table's cost constants
    (``STRIP_CELL_COST``, ``STRIPED_COLUMN_OVERHEAD``, ...) patched."""
    from repro.engine import kernels

    with pytest.MonkeyPatch.context() as mp:
        for name, value in constants.items():
            mp.setattr(kernels, name, value)
        return tune_split_threshold(lengths, group_size=group_size)


#: Strips priced near-free: no per-cell cost and no per-row cost.
FREE_STRIPS = {"STRIP_CELL_COST": 0.01, "STRIP_ROW_OVERHEAD": 0.0}


class TestCostModelKnobs:
    """The 'auto' split follows the kernel table's cost constants."""

    def resolved(self, corpus, **constants):
        return _tuned(corpus["db"].lengths, 4, **constants)

    def test_strip_cell_cost_moves_the_threshold(self, corpus):
        default = self.resolved(corpus)
        # Strips priced near-free: everything should route to the strip
        # engine (threshold collapses); priced exorbitantly: the split
        # point must move the other way from the cheap setting.
        cheap = self.resolved(corpus, **FREE_STRIPS)
        costly = self.resolved(corpus, STRIP_CELL_COST=50.0)
        assert cheap == 0
        assert cheap != costly
        assert default != cheap or default != costly

    def test_column_overhead_moves_the_threshold(self, corpus):
        # Huge fixed per-iteration overheads on both bulk kernels (the
        # striped column loop, the gotoh row loop) make every bulk group
        # unattractive relative to strips.
        assert (
            self.resolved(
                corpus, STRIPED_COLUMN_OVERHEAD=1e9, GOTOH_ROW_OVERHEAD=1e9
            )
            != self.resolved(corpus)
        )

    def test_scores_bit_identical_across_cost_settings(self, corpus):
        for constants in ({}, FREE_STRIPS,
                          {"STRIPED_COLUMN_OVERHEAD": 1e9}):
            engine = BatchedEngine(
                BLOSUM62, GP,
                SearchConfig(
                    engine="hetero", group_size=4,
                    split_threshold=self.resolved(corpus, **constants),
                ),
            )
            scores, _ = engine.search(corpus["query"], corpus["db"])
            assert np.array_equal(scores, corpus["reference"])

    def test_search_api_threads_the_knobs(self, corpus):
        from repro.app import CudaSW
        from repro.cuda import TESLA_C2050

        app = CudaSW(TESLA_C2050)
        for engine in ("batched", "hetero"):
            result, _ = app.search(
                corpus["query"], corpus["db"], engine=engine,
                split_threshold=0,
            )
            assert np.array_equal(result.scores, corpus["reference"])
            assert app.last_engine_report.split_threshold == 0
            assert set(app.last_engine_report.lane_engines) == {"strips"}
        with pytest.raises(ValueError, match="split_threshold"):
            app.search(
                corpus["query"], corpus["db"], engine="scalar",
                split_threshold=0,
            )


def _swissprot_lengths(n, tail, seed):
    """The repo benchmark's database shape: stratified Swiss-Prot
    lengths plus an evenly spaced 3,600-4,140 aa tail."""
    rng = np.random.default_rng(seed)
    body = SWISSPROT_PROFILE.build(
        rng, scale=n / SWISSPROT_PROFILE.n_sequences
    )
    tail_lengths = np.linspace(3_600, 4_140, tail, endpoint=False)
    return np.concatenate([body.lengths, tail_lengths.astype(int)])


def _plan(lengths, m, group_size=128):
    """The engine's plan at query length ``m``: the tuned split, then
    each group's kernel."""
    lengths = np.sort(lengths)
    threshold = tune_split_threshold(
        lengths, group_size=group_size, query_length=m
    )
    plan, kernels = plan_groups(lengths, m, group_size, threshold)
    return lengths, plan, kernels


class TestKernelCostModel:
    """The planner, the split tuner and the pool dispatcher price groups
    with the same per-kernel ``cost`` functions from the kernel table,
    at the query's length."""

    @pytest.mark.parametrize(
        "n, tail, group_size, m, expected",
        [
            (500, 12, 128, 350, 653),
            (500, 12, 64, 350, 795),
            (500, 12, 8, 350, 4095),
            (500, 12, 128, 60, 653),
            (60, 2, 128, 40, 0),
            (1_000, 0, 128, 300, 685),
            (200, 0, 128, 100, 234),
        ],
    )
    def test_tuner_picks_pinned_for_bench_shapes(
        self, n, tail, group_size, m, expected
    ):
        for seed in (1, 2):
            lengths = _swissprot_lengths(n, tail, seed)
            assert tune_split_threshold(
                lengths, group_size=group_size, query_length=m
            ) == expected

    @pytest.mark.parametrize(
        "n, tail, m, expected",
        [
            # A gotoh bulk and a strips tail on every bench shape.
            pytest.param(
                1_000, 0, 300, ["gotoh"] * 7 + ["strips"],
                id="bulk_fasta-300",
            ),
            pytest.param(
                200, 0, 100, ["gotoh", "strips"], id="cli_small-100"
            ),
            pytest.param(200, 0, 60, ["gotoh", "strips"], id="cli_small-60"),
            pytest.param(
                500, 12, 60, ["gotoh"] * 4 + ["strips"],
                id="campaign_checkpoint-60",
            ),
            pytest.param(
                500, 12, 350, ["gotoh"] * 4 + ["strips"],
                id="tail_store_fanned-350",
            ),
        ],
    )
    def test_kernel_picks_pinned_for_bench_shapes(self, n, tail, m, expected):
        for seed in (1, 2):
            lengths = _swissprot_lengths(n, tail, seed)
            lengths, plan, kernels = _plan(lengths, m)
            assert kernels == expected
            for (start, end), kernel in zip(plan.ranges, kernels):
                if int(lengths[end - 1]) >= 3_600:
                    # The titin-class tail never joins a bulk group.
                    assert kernel == "strips"

    def test_tuner_knob_picks_pinned(self):
        lengths = _swissprot_lengths(500, 12, 1)
        assert _tuned(lengths, 128, **FREE_STRIPS) == 0

    def test_constants_live_in_the_kernel_table(self):
        from repro.app import threshold
        from repro.engine import kernels

        for name in (
            "GOTOH_CELL_COST", "GOTOH_ROW_OVERHEAD",
            "STRIPED_CELL_COST", "STRIPED_COLUMN_OVERHEAD",
            "STRIP_CELL_COST", "STRIP_ROW_OVERHEAD",
        ):
            assert isinstance(getattr(kernels, name), float)
            # One home: the tuner reads them through the kernel table.
            assert not hasattr(threshold, name)

    def test_group_costs(self, corpus):
        from repro.engine import kernels

        m = len(corpus["query"])
        groups = pack_database_hetero(corpus["db"], 4, 300)
        for g in groups:
            for name in ("gotoh", "striped", "strips"):
                g = replace(g, lane_engine=name)
                cost = kernels.group_cost(g, m)
                if name == "gotoh":
                    assert cost == m * (
                        kernels.GOTOH_CELL_COST * g.padded_cells
                        + kernels.GOTOH_ROW_OVERHEAD
                    )
                elif name == "striped":
                    assert cost == g.max_length * (
                        kernels.STRIPED_CELL_COST * g.size * m
                        + kernels.STRIPED_COLUMN_OVERHEAD
                    )
                else:
                    assert cost == m * (
                        kernels.STRIP_CELL_COST * g.sweep_cells
                        + kernels.STRIP_ROW_OVERHEAD
                    )
