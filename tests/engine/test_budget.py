"""Memory-budget tests: oversized groups split instead of OOM-killing."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.alphabet import BLOSUM62, PROTEIN, GapPenalty, SubstitutionMatrix
from repro.engine import (
    BatchedEngine,
    MemoryBudget,
    SearchConfig,
    estimate_group_bytes,
    pack_database,
    pack_plan,
)
from repro.engine.lanes import _tile_dtype, _working_dtype
from repro.engine.pack import DEFAULT_STRIP_WIDTH, plan_chunks
from repro.sequence import Database, Sequence, random_protein

GP = GapPenalty.cudasw_default()

SRC = Path(__file__).resolve().parents[2] / "src"

#: Bytes per swept cell the budget tests price groups at.
CELL = 96


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(41)
    return Database.from_sequences(
        [Sequence.random(f"s{i}", int(n), rng)
         for i, n in enumerate(rng.integers(10, 200, size=24))]
    )


class TestEstimate:
    def test_scales_with_geometry(self):
        assert estimate_group_bytes(1, 1, CELL) == 2 * CELL
        assert estimate_group_bytes(4, 99, CELL) == 4 * 100 * CELL
        assert estimate_group_bytes(4, 99, 31) == 4 * 100 * 31

    def test_rejects_degenerate_geometry(self):
        for size, length in ((0, 10), (10, 0), (-1, 5)):
            with pytest.raises(ValueError):
                estimate_group_bytes(size, length, CELL)


class TestMemoryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        with pytest.raises(ValueError):
            MemoryBudget.from_megabytes(-1)
        assert MemoryBudget.from_megabytes(2).max_group_bytes == 2 * 2**20

    def test_fits(self):
        budget = MemoryBudget(estimate_group_bytes(4, 100, CELL))
        assert budget.fits(4, 100, CELL)
        assert not budget.fits(4, 101, CELL)
        assert not budget.fits(5, 100, CELL)

    def test_split_points_whole_chunk_fits(self):
        budget = MemoryBudget.from_megabytes(64)
        assert budget.split_points([10, 20, 30, 40], CELL) == [4]

    def test_split_points_greedy(self):
        # Budget admits exactly 2 lanes at width 100.
        budget = MemoryBudget(estimate_group_bytes(2, 100, CELL))
        assert budget.split_points([50, 100, 100, 100], CELL) == [2, 4]
        # Ascending widths force earlier cuts as the rectangle widens.
        assert budget.split_points([10, 10, 10, 200], CELL) == [3, 4]

    def test_split_points_rejects_empty(self):
        with pytest.raises(ValueError):
            MemoryBudget.from_megabytes(1).split_points([], CELL)

    def test_oversized_singleton_kept_with_warning(self):
        budget = MemoryBudget(estimate_group_bytes(1, 50, CELL))
        with obs.collect("counters") as instr:
            with pytest.warns(UserWarning, match="exceeds the memory"):
                ends = budget.split_points([10, 1000, 2000], CELL)
        assert ends == [1, 2, 3]
        c = instr.counters.as_dict()
        assert c["engine.budget.oversized_singletons"] == 2


def _pack_budgeted(db, group_size, budget):
    """``pack_database``'s geometry with the ``budget`` split, at
    :data:`CELL` bytes a cell."""
    order = np.argsort(db.lengths, kind="stable")
    plan = plan_chunks(
        db.lengths[order], group_size, budget=budget, cell_bytes=CELL
    )
    return pack_plan(db, order, plan, ["gotoh"] * len(plan.ranges))


class TestPackWithBudget:
    def test_no_budget_packing_unchanged(self, db):
        """Without a budget, packing is plain fixed-size chunking of the
        length-sorted order."""
        groups = pack_database(db, 4)
        assert [g.size for g in groups] == [4] * (len(db) // 4)
        order = np.argsort(db.lengths, kind="stable")
        assert np.array_equal(
            np.concatenate([g.indices for g in groups]), order
        )
        assert [g.size for g in _pack_budgeted(db, 4, None)] == [
            g.size for g in groups
        ]

    def test_budget_needs_the_bytes_per_cell(self, db):
        with pytest.raises(ValueError, match="bytes per swept cell"):
            plan_chunks(
                np.sort(db.lengths), 8,
                budget=MemoryBudget.from_megabytes(1),
            )

    def test_budget_splits_and_counts(self, db):
        baseline = pack_database(db, 8)
        widest = max(g.max_length for g in baseline)
        budget = MemoryBudget(estimate_group_bytes(3, widest, CELL))
        with obs.collect("counters") as instr:
            groups = _pack_budgeted(db, 8, budget)
        assert len(groups) > len(baseline)
        for g in groups:
            assert budget.fits(g.size, g.max_length, CELL) or g.size == 1
        c = instr.counters.as_dict()
        assert c["engine.budget.groups_split"] >= 1
        assert (
            c["engine.budget.extra_groups"]
            == len(groups) - len(baseline)
        )
        # Every database sequence still lands in exactly one lane.
        seen = np.concatenate([g.indices for g in groups])
        assert sorted(seen.tolist()) == list(range(len(db)))

    def test_budgeted_scores_bit_identical(self, db):
        query = random_protein(35, np.random.default_rng(42), id="q")
        reference, _ = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=8)).search(
            query, db
        )
        budget = MemoryBudget(estimate_group_bytes(2, 256, CELL))
        scores, report = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=8, memory_budget=budget),
        ).search(query, db)
        assert np.array_equal(scores, reference)
        assert report.n_groups > 3  # the split really happened

    def test_budget_changes_checkpoint_fingerprint(self, db, tmp_path):
        """A journal written under one budget must not resume under
        another: the split changes the group decomposition."""
        from repro.engine import CheckpointError

        query = random_protein(30, np.random.default_rng(43), id="q")
        path = tmp_path / "budget.wal"
        budget = MemoryBudget(estimate_group_bytes(2, 256, CELL))
        BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=8, memory_budget=budget),
        ).search(query, db, checkpoint=path)
        with pytest.raises(CheckpointError, match="different search"):
            BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=8)).search(
                query, db, checkpoint=path, resume=True
            )


#: A process's first search, traced: prints its budget counters and
#: whether ``numpy.ma`` got imported along the way.
FIRST_SEARCH = textwrap.dedent(
    """
    import json, sys
    import numpy as np
    from repro import obs
    from repro.alphabet import BLOSUM62, GapPenalty
    from repro.engine import BatchedEngine
    from repro.sequence import Database, Sequence, random_protein
    rng = np.random.default_rng(46)
    db = Database.from_sequences(
        [Sequence.random(f"s{i}", int(n), rng)
         for i, n in enumerate(rng.integers(20, 101, size=128))]
    )
    query = random_protein(300, rng)
    with obs.collect("full", memory=True) as instr:
        BatchedEngine(BLOSUM62, GapPenalty.cudasw_default()).search(
            query, db
        )
    print(json.dumps({
        "checks": instr.counters.get("engine.mem.budget_checks"),
        "underestimates": instr.counters.get(
            "engine.mem.budget_underestimates"
        ),
        "numpy.ma": "numpy.ma" in sys.modules,
    }))
    """
)


class TestEstimateCoversSweep:
    """The per-cell estimate must cover the sweep's real peak even in
    the int64 rung, where every working buffer is widest."""

    def test_first_search_of_a_process_imports_nothing_into_the_peak(
        self, tmp_path
    ):
        """The traced sweep peak is absolute, so a module the search
        imports lazily counts against the budget: a process's first
        search must load none (``np.unique``'s plain form imports
        ``numpy.ma``, about 1 MB under tracemalloc)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        child = subprocess.run(
            [sys.executable, "-c", FIRST_SEARCH],
            capture_output=True, text=True, cwd=tmp_path, env=env,
            timeout=300,
        )
        assert child.returncode == 0, child.stderr
        result = json.loads(child.stdout.splitlines()[-1])
        assert result == {
            "checks": 1, "underestimates": 0, "numpy.ma": False
        }

    def test_promoting_group_fits_the_estimate(self, tmp_path):
        """A group that starts in int8 and promotes mid-sweep frees its
        int8 scratch before the wider buffers exist, so a fresh
        ``repro search --mem-phases`` over groups holding copies of the
        query (which score far past the int8 check) stays within the
        estimate priced at the ladder rung."""
        from repro.sequence import write_fasta

        rng = np.random.default_rng(47)
        query = random_protein(300, rng, id="q")
        # 90-aa windows of the query: as long as the random subjects, so
        # all 128 pack into one gotoh group.
        subjects = [
            Sequence.random(f"s{i}", int(n), rng)
            for i, n in enumerate(rng.integers(20, 101, size=124))
        ] + [
            Sequence(f"h{k}", query.codes[70 * k: 70 * k + 90])
            for k in range(4)
        ]
        write_fasta([query], tmp_path / "q.fasta")
        write_fasta(subjects, tmp_path / "db.fasta")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p
        )
        child = subprocess.run(
            [sys.executable, "-m", "repro", "search", "q.fasta", "db.fasta",
             "--mem-phases", "--metrics-out", "m.json"],
            capture_output=True, text=True, cwd=tmp_path, env=env,
            timeout=300,
        )
        assert child.returncode == 0, child.stderr
        counters = json.loads((tmp_path / "m.json").read_text())["counters"]
        assert counters["engine.sweep.groups"] == 1
        assert counters["engine.sweep.promotions"] == 1
        assert 0 < counters["engine.sweep.int8_rows"] < 300
        assert counters["engine.mem.budget_checks"] == 1
        assert counters.get("engine.mem.budget_underestimates", 0) == 0

    @pytest.mark.parametrize(
        "config, query_length, kernel",
        [
            # No tail, and a 100-aa query short enough that the cost
            # model plans the bulk gotoh (at 400 aa it picks striped).
            (
                SearchConfig(
                    engine="hetero", split_threshold=1000, group_size=128
                ),
                100, "gotoh",
            ),
            (
                SearchConfig(engine="hetero", split_threshold=0, group_size=128),
                400, "strips",
            ),
        ],
        ids=["gotoh", "strips"],
    )
    def test_no_underestimate_in_the_int64_rung(
        self, config, query_length, kernel
    ):
        rng = np.random.default_rng(43)
        db = Database.from_sequences(
            [Sequence.random(f"s{i}", int(n), rng)
             for i, n in enumerate(rng.integers(900, 1000, size=128))]
        )
        query = random_protein(query_length, rng)
        # Penalties at the validation cap push the sweep past int32, at
        # the group's width or at the default strip width.
        gaps = GapPenalty(rho=2**20, sigma=2**20)
        width = (
            int(db.lengths.max()) if kernel == "gotoh" else DEFAULT_STRIP_WIDTH
        )
        assert _working_dtype(query_length, width, 11, gaps) is np.int64
        with obs.collect("full", memory=True) as instr:
            _, report = BatchedEngine(BLOSUM62, gaps, config).search(query, db)
        assert set(report.lane_engines) == {kernel}
        counters = instr.counters
        assert counters.get("engine.mem.budget_checks") == 1
        assert counters.get("engine.mem.budget_underestimates") == 0

    @pytest.mark.parametrize(
        "split, kernel", [(1000, "gotoh"), (0, "strips")],
        ids=["gotoh", "strips"],
    )
    @pytest.mark.parametrize("scale", [1, 20], ids=["int8-tiles", "wide-tiles"])
    def test_no_underestimate_with_a_tile_per_symbol(
        self, split, kernel, scale
    ):
        """A query using every symbol of the alphabet builds a
        similarity tile per symbol, and a matrix past 127 widens each
        tile to the working dtype: the estimate still covers both."""
        rng = np.random.default_rng(44)
        db = Database.from_sequences(
            [Sequence.random(f"s{i}", int(n), rng)
             for i, n in enumerate(rng.integers(900, 1000, size=128))]
        )
        query = Sequence(
            "every", np.repeat(np.arange(PROTEIN.size, dtype=np.uint8), 4)
        )
        matrix = SubstitutionMatrix(
            "BLOSUM62 x scale", PROTEIN, BLOSUM62.scores * scale
        )
        gaps = GapPenalty(rho=2**20, sigma=2**20)
        width = (
            int(db.lengths.max()) if kernel == "gotoh" else DEFAULT_STRIP_WIDTH
        )
        max_abs = 11 * scale
        dtype = _working_dtype(len(query), width, max_abs, gaps)
        assert dtype is (np.int64 if kernel == "gotoh" else np.int32)
        assert _tile_dtype(max_abs, dtype) is (
            np.int8 if scale == 1 else dtype
        )
        config = SearchConfig(split_threshold=split, group_size=128)
        with obs.collect("full", memory=True) as instr:
            _, report = BatchedEngine(matrix, gaps, config).search(query, db)
        assert set(report.lane_engines) == {kernel}
        counters = instr.counters
        assert counters.get("engine.mem.budget_checks") == 1
        assert counters.get("engine.mem.budget_underestimates") == 0

    def test_budget_split_holds_wide_tiles(self):
        """The planner prices a group at the search's own bytes per
        cell, so under a matrix past 127 (tiles in the working dtype) a
        budget split still keeps the traced sweep peak under the
        budget."""
        rng = np.random.default_rng(45)
        db = Database.from_sequences(
            [Sequence.random(f"s{i}", int(n), rng)
             for i, n in enumerate(rng.integers(900, 1000, size=64))]
        )
        query = Sequence(
            "every", np.repeat(np.arange(PROTEIN.size, dtype=np.uint8), 4)
        )
        matrix = SubstitutionMatrix(
            "BLOSUM62 x 20", PROTEIN, BLOSUM62.scores * 20
        )
        gaps = GapPenalty(rho=2**20, sigma=2**20)
        budget = MemoryBudget.from_megabytes(4)
        config = SearchConfig(
            split_threshold=1000, group_size=64, memory_budget=budget
        )
        reference, _ = BatchedEngine(
            matrix, gaps, SearchConfig(split_threshold=1000, group_size=64)
        ).search(query, db)
        with obs.collect("full", memory=True) as instr:
            scores, report = BatchedEngine(matrix, gaps, config).search(
                query, db
            )
        assert np.array_equal(scores, reference)
        assert set(report.lane_engines) == {"gotoh"}
        counters = instr.counters
        assert counters.get("engine.budget.groups_split") == 1
        assert counters.get("engine.mem.budget_underestimates") == 0
        assert (
            counters.get("engine.mem.budget_predicted_bytes")
            <= budget.max_group_bytes
        )
        assert (
            counters.get("engine.mem.sweep.peak_bytes")
            <= budget.max_group_bytes
        )
