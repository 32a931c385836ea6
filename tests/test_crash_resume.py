"""Kill-and-resume determinism: the ISSUE acceptance scenario.

A checkpointed search is SIGKILLed from outside mid-journal (a real
subprocess, a real ``kill -9`` — nothing Python can intercept), then
resumed.  The resumed scores must be bit-identical to an uninterrupted
run, with the ``engine.checkpoint.groups_replayed`` /
``groups_recomputed`` counters proving the journal actually carried
completed work across the crash.  The same contract is exercised
through the CLI for the deadline path (exit code 3 + printed journal
hint, then ``--resume`` finishing the search).
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import BatchedEngine, FaultPolicy, pack_database, SearchConfig
from repro.sequence import Database, Sequence, random_protein, write_fasta

GP = GapPenalty.cudasw_default()

#: Per-group sleep injected into the crashing child process, so the
#: parent's poll-then-SIGKILL reliably lands mid-run (each group takes
#: at least this long, and there are a dozen of them).
CHILD_GROUP_SLEEP = 0.15


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("crash")
    rng = np.random.default_rng(51)
    query = random_protein(48, rng, id="Q1")
    db_seqs = [
        Sequence.random(f"s{i}", int(n), rng)
        for i, n in enumerate(rng.integers(20, 160, size=48))
    ]
    query_path = tmp / "query.fasta"
    db_path = tmp / "db.fasta"
    write_fasta([query], query_path)
    write_fasta(db_seqs, db_path)
    return {
        "query": query,
        "db": Database.from_sequences(db_seqs),
        "query_path": str(query_path),
        "db_path": str(db_path),
        "tmp": tmp,
    }


#: The crashing child: a checkpointed search with every group sweep
#: slowed, so the parent can kill it between fsync'd appends.
CHILD_SCRIPT = textwrap.dedent(
    """
    import dataclasses, sys, time
    from repro.alphabet import BLOSUM62, GapPenalty
    from repro.engine import LANE_KERNELS, BatchedEngine, SearchConfig
    from repro.sequence import Database, read_fasta_file

    db_path, query_path, journal = sys.argv[1:4]
    gotoh = LANE_KERNELS["gotoh"]

    def slow(profile, group, gaps):
        time.sleep({sleep})
        return gotoh.score(profile, group, gaps)

    LANE_KERNELS["gotoh"] = dataclasses.replace(gotoh, score=slow)
    db = Database.from_sequences(read_fasta_file(db_path))
    query = read_fasta_file(query_path)[0]
    BatchedEngine(
        BLOSUM62, GapPenalty.cudasw_default(),
        SearchConfig(group_size=4),
    ).search(query, db, checkpoint=journal)
    """
).format(sleep=CHILD_GROUP_SLEEP)


def wait_for_journal_growth(path, *, min_records=2, timeout=30.0):
    """Block until the journal holds at least ``min_records`` group
    appends past its header (each append is >= 60 bytes and fsync'd)."""
    deadline = time.monotonic() + timeout
    floor = 120 + 60 * min_records
    while time.monotonic() < deadline:
        if path.exists() and path.stat().st_size >= floor:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"journal never reached {min_records} records within {timeout}s"
    )


class TestSigkillResume:
    def test_sigkill_mid_journal_then_resume_bit_identical(self, corpus):
        journal = corpus["tmp"] / "killed.wal"
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SCRIPT, corpus["db_path"],
             corpus["query_path"], str(journal)],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        try:
            wait_for_journal_growth(journal)
        finally:
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        assert child.returncode == -signal.SIGKILL  # really died by kill
        size_after_kill = journal.stat().st_size

        reference, _ = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=4)).search(
            corpus["query"], corpus["db"]
        )
        n_groups = len(pack_database(corpus["db"], 4))
        with obs.collect("counters") as instr:
            scores, _ = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=4)).search(
                corpus["query"], corpus["db"],
                checkpoint=journal, resume=True,
            )
        assert np.array_equal(scores, reference)
        c = instr.counters.as_dict()
        replayed = c.get("engine.checkpoint.groups_replayed", 0)
        recomputed = c.get("engine.checkpoint.groups_recomputed", 0)
        # The kill landed mid-run: some groups crossed the crash in the
        # journal, the rest were recomputed, and nothing was scored
        # twice.  A record torn by the kill is recomputed, not trusted.
        assert replayed >= 1
        assert recomputed >= 1
        assert replayed + recomputed == n_groups
        assert journal.stat().st_size > size_after_kill  # appends resumed

        # Second resume: the journal is complete, nothing recomputes.
        with obs.collect("counters") as instr2:
            scores2, _ = BatchedEngine(
                BLOSUM62, GP,
                SearchConfig(group_size=4),
            ).search(
                corpus["query"], corpus["db"],
                checkpoint=journal, resume=True,
            )
        assert np.array_equal(scores2, reference)
        c2 = instr2.counters.as_dict()
        assert c2["engine.checkpoint.groups_replayed"] == n_groups
        assert c2.get("engine.checkpoint.groups_recomputed", 0) == 0


class TestDeadlineResume:
    def test_deadline_killed_search_resumes_bit_identical(self, corpus,
                                                          monkeypatch):
        """PR 3's deadline path feeds PR 5's journal: groups finished
        before the deadline are already durable, and --resume finishes
        only the remainder."""
        from dataclasses import replace

        from repro.engine import LANE_KERNELS, SearchDeadlineExceeded

        journal = corpus["tmp"] / "deadline.wal"
        gotoh = LANE_KERNELS["gotoh"]

        def slow(profile, group, gaps):
            time.sleep(0.15)
            return gotoh.score(profile, group, gaps)

        monkeypatch.setitem(
            LANE_KERNELS, "gotoh", replace(gotoh, score=slow)
        )
        engine = BatchedEngine(
            BLOSUM62, GP,
            SearchConfig(group_size=4, fault_policy=FaultPolicy(deadline=0.4)),
        )
        with pytest.raises(SearchDeadlineExceeded) as excinfo:
            engine.search(corpus["query"], corpus["db"], checkpoint=journal)
        assert excinfo.value.partial  # something finished before expiry
        monkeypatch.undo()

        reference, _ = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=4)).search(
            corpus["query"], corpus["db"]
        )
        n_groups = len(pack_database(corpus["db"], 4))
        with obs.collect("counters") as instr:
            scores, _ = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=4)).search(
                corpus["query"], corpus["db"],
                checkpoint=journal, resume=True,
            )
        assert np.array_equal(scores, reference)
        c = instr.counters.as_dict()
        assert c["engine.checkpoint.groups_replayed"] >= 1
        assert (
            c["engine.checkpoint.groups_replayed"]
            + c.get("engine.checkpoint.groups_recomputed", 0)
            == n_groups
        )


class TestCliResumeFlow:
    def run_cli(self, argv):
        import io

        from repro.cli import main

        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_deadline_exit_3_prints_journal_then_resume_finishes(
        self, corpus
    ):
        journal = corpus["tmp"] / "cli.wal"
        clean_tsv = corpus["tmp"] / "clean.tsv"
        resumed_tsv = corpus["tmp"] / "resumed.tsv"

        code, text = self.run_cli(
            ["search", corpus["query_path"], corpus["db_path"],
             "--scores-out", str(clean_tsv)]
        )
        assert code == 0

        code, text = self.run_cli(
            ["search", corpus["query_path"], corpus["db_path"],
             "--deadline", "1e-9", "--checkpoint", str(journal)]
        )
        assert code == 3
        assert f"checkpoint journal: {journal}" in text
        assert "--resume" in text
        assert journal.exists()

        code, text = self.run_cli(
            ["search", corpus["query_path"], corpus["db_path"],
             "--checkpoint", str(journal), "--resume",
             "--scores-out", str(resumed_tsv)]
        )
        assert code == 0
        assert resumed_tsv.read_text() == clean_tsv.read_text()

    def test_resume_without_checkpoint_is_usage_error(self, corpus):
        code, text = self.run_cli(
            ["search", corpus["query_path"], corpus["db_path"], "--resume"]
        )
        assert code == 2
        assert "--checkpoint" in text

    def test_stale_journal_refused_with_exit_2(self, corpus):
        journal = corpus["tmp"] / "stale-cli.wal"
        code, _ = self.run_cli(
            ["search", corpus["query_path"], corpus["db_path"],
             "--checkpoint", str(journal)]
        )
        assert code == 0
        # Same journal, different scoring parameters: clean refusal.
        code, text = self.run_cli(
            ["search", corpus["query_path"], corpus["db_path"],
             "--checkpoint", str(journal), "--resume",
             "--gap-open", "5", "--gap-extend", "1"]
        )
        assert code == 2
        assert "different search" in text

    def test_checkpoint_rejected_for_non_batched_engine(self, corpus):
        code, text = self.run_cli(
            ["search", corpus["query_path"], corpus["db_path"],
             "--engine", "scalar", "--checkpoint", "x.wal"]
        )
        assert code == 2
        assert "batched" in text

    def test_memory_budget_flag_splits_groups_same_scores(self, corpus):
        base_tsv = corpus["tmp"] / "base.tsv"
        budget_tsv = corpus["tmp"] / "budget.tsv"
        code, base_text = self.run_cli(
            ["search", corpus["query_path"], corpus["db_path"],
             "--group-size", "16", "--scores-out", str(base_tsv)]
        )
        assert code == 0
        code, text = self.run_cli(
            ["search", corpus["query_path"], corpus["db_path"],
             "--group-size", "16", "--memory-budget-mb", "0.02",
             "--scores-out", str(budget_tsv)]
        )
        assert code == 0
        assert budget_tsv.read_text() == base_tsv.read_text()

        def n_groups(text):
            for line in text.splitlines():
                if "groups of" in line:
                    return int(line.split("engine:")[1].split("groups")[0])
            raise AssertionError("no packing line")

        assert n_groups(text) > n_groups(base_text)
