"""Write-ahead journal tests: replay, refusal and torn-tail tolerance.

The failure contract under test (see :mod:`repro.engine.checkpoint`):
a *torn tail* — the file ending mid-record, the expected artifact of
SIGKILL during an append — is dropped with a warning and its group
recomputed; every other defect (bad magic, truncated header, a CRC
failure in a *complete* record, fingerprint/geometry/content-hash
mismatch) refuses cleanly with :class:`CheckpointError` so a wrong
journal can never contaminate scores.
"""

import numpy as np
import pytest

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import (
    DEFAULT_GROUP_SIZE,
    BatchedEngine,
    CheckpointError,
    CheckpointJournal,
    SearchConfig,
    atomic_write_text,
    pack_database,
    score_packed_group,
    search_fingerprint,
)
from repro.engine.checkpoint import MAGIC, group_content_hash
from repro.sequence import Database, QueryProfile, Sequence, random_protein

GP = GapPenalty.cudasw_default()


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(31)
    return Database.from_sequences(
        [Sequence.random(f"s{i}", int(n), rng)
         for i, n in enumerate(rng.integers(8, 120, size=20))]
    )


@pytest.fixture(scope="module")
def query():
    return random_protein(40, np.random.default_rng(32), id="q")


@pytest.fixture(scope="module")
def reference(db, query):
    scores, _ = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=4)).search(query, db)
    return scores


def checkpointed_search(db, query, path, *, resume=False, gaps=GP,
                        group_size=4, workers=1):
    with obs.collect("counters") as instr:
        scores, _ = BatchedEngine(
            BLOSUM62, gaps,
            SearchConfig(group_size=group_size, workers=workers),
        ).search(query, db, checkpoint=path, resume=resume)
    return scores, instr.counters.as_dict()


def truncate_to_records(path, keep):
    """Rewrite the journal keeping the header plus ``keep`` group records."""
    import struct

    buf = path.read_bytes()
    offset = len(MAGIC)
    frame = struct.Struct("<BI")
    for _ in range(1 + keep):  # header record + kept group records
        _, length = frame.unpack_from(buf, offset)
        offset += frame.size + length + 4
    path.write_bytes(buf[:offset])


class TestJournalRoundTrip:
    def test_fresh_run_journals_every_group(self, db, query, reference,
                                            tmp_path):
        path = tmp_path / "run.wal"
        scores, c = checkpointed_search(db, query, path)
        assert np.array_equal(scores, reference)
        n_groups = len(pack_database(db, 4))
        assert c["engine.checkpoint.groups_journaled"] == n_groups
        assert c["engine.checkpoint.groups_recomputed"] == n_groups
        assert path.exists() and path.stat().st_size > len(MAGIC)

    def test_full_replay_recomputes_nothing(self, db, query, reference,
                                            tmp_path):
        path = tmp_path / "run.wal"
        checkpointed_search(db, query, path)
        scores, c = checkpointed_search(db, query, path, resume=True)
        assert np.array_equal(scores, reference)
        n_groups = len(pack_database(db, 4))
        assert c["engine.checkpoint.groups_replayed"] == n_groups
        assert c.get("engine.checkpoint.groups_recomputed", 0) == 0

    def test_partial_replay_recomputes_exact_remainder(
        self, db, query, reference, tmp_path
    ):
        path = tmp_path / "run.wal"
        checkpointed_search(db, query, path)
        truncate_to_records(path, keep=2)
        scores, c = checkpointed_search(db, query, path, resume=True)
        assert np.array_equal(scores, reference)
        n_groups = len(pack_database(db, 4))
        assert c["engine.checkpoint.groups_replayed"] == 2
        assert c["engine.checkpoint.groups_recomputed"] == n_groups - 2
        # The resumed journal is complete again: a second resume
        # replays everything.
        _, c2 = checkpointed_search(db, query, path, resume=True)
        assert c2["engine.checkpoint.groups_replayed"] == n_groups

    def test_resume_on_missing_file_starts_fresh(self, db, query, reference,
                                                 tmp_path):
        path = tmp_path / "never-written.wal"
        scores, c = checkpointed_search(db, query, path, resume=True)
        assert np.array_equal(scores, reference)
        assert c.get("engine.checkpoint.groups_replayed", 0) == 0

    def test_without_resume_truncates_old_journal(self, db, query, tmp_path):
        path = tmp_path / "run.wal"
        checkpointed_search(db, query, path)
        size_full = path.stat().st_size
        _, c = checkpointed_search(db, query, path)  # resume=False
        assert c.get("engine.checkpoint.groups_replayed", 0) == 0
        assert path.stat().st_size == size_full  # rewritten, not appended

    def test_parallel_run_journals_and_replays(self, db, query, reference,
                                               tmp_path):
        path = tmp_path / "pool.wal"
        scores, c = checkpointed_search(db, query, path, workers=2)
        assert np.array_equal(scores, reference)
        n_groups = len(pack_database(db, 4))
        assert c["engine.checkpoint.groups_journaled"] == n_groups
        _, c2 = checkpointed_search(db, query, path, resume=True, workers=2)
        assert c2["engine.checkpoint.groups_replayed"] == n_groups


class TestTornTail:
    def test_torn_tail_dropped_with_warning_and_counter(
        self, db, query, reference, tmp_path
    ):
        path = tmp_path / "torn.wal"
        checkpointed_search(db, query, path)
        buf = path.read_bytes()
        path.write_bytes(buf[:-7])  # shear the last record mid-frame
        with pytest.warns(UserWarning, match="torn tail"):
            scores, c = checkpointed_search(db, query, path, resume=True)
        assert np.array_equal(scores, reference)
        assert c["engine.checkpoint.torn_records_dropped"] == 1
        n_groups = len(pack_database(db, 4))
        assert c["engine.checkpoint.groups_replayed"] == n_groups - 1
        assert c["engine.checkpoint.groups_recomputed"] == 1


class TestRefusal:
    def fingerprint(self, db, query, matrix=BLOSUM62, group_size=4):
        return search_fingerprint(
            np.asarray(query.codes), matrix, GP, group_size, db
        )

    def test_bad_magic_refused(self, db, query, tmp_path):
        path = tmp_path / "not-a.wal"
        path.write_bytes(b"definitely not a journal")
        with pytest.raises(CheckpointError, match="bad magic"):
            CheckpointJournal.resume(
                path, self.fingerprint(db, query), pack_database(db, 4)
            )

    def test_truncated_header_refused(self, db, query, tmp_path):
        path = tmp_path / "stub.wal"
        path.write_bytes(MAGIC + b"\x01\x40")  # frame sheared mid-length
        with pytest.raises(CheckpointError, match="truncated journal header"):
            CheckpointJournal.resume(
                path, self.fingerprint(db, query), pack_database(db, 4)
            )

    def test_crc_corruption_in_complete_record_refused(self, db, query,
                                                       tmp_path):
        path = tmp_path / "bitrot.wal"
        checkpointed_search(db, query, path)
        buf = bytearray(path.read_bytes())
        # Flip one payload byte of a middle record: the record is still
        # complete (framing intact) so this is corruption, not a torn
        # tail, and must be refused.
        buf[len(buf) // 2] ^= 0xFF
        path.write_bytes(bytes(buf))
        with pytest.raises(CheckpointError, match="CRC"):
            checkpointed_search(db, query, path, resume=True)

    def test_fingerprint_mismatch_refused(self, db, query, tmp_path):
        path = tmp_path / "stale.wal"
        checkpointed_search(db, query, path)
        with pytest.raises(CheckpointError, match="different search"):
            checkpointed_search(db, query, path, resume=True,
                                gaps=GapPenalty(rho=10, sigma=1))

    def test_group_geometry_mismatch_refused(self, db, query, tmp_path):
        path = tmp_path / "geometry.wal"
        checkpointed_search(db, query, path)
        # Same DB and query, different group size: the fingerprint
        # changes, so the journal must be rejected before any group
        # record is even read.
        with pytest.raises(CheckpointError, match="different search"):
            checkpointed_search(db, query, path, resume=True, group_size=8)

    def test_content_hash_mismatch_refused(self, db, query, tmp_path):
        path = tmp_path / "edited.wal"
        groups = pack_database(db, 4)
        fp = self.fingerprint(db, query)
        # Journal a record for index 1 carrying group 0's lanes: the
        # framing and CRC are valid, but the stored content digest
        # cannot match the packed database — the stale-database case.
        with CheckpointJournal.create(path, fp, len(groups)) as journal:
            journal.append(1, groups[0], np.zeros(groups[1].size,
                                                  dtype=np.int64))
        with pytest.raises(CheckpointError, match="content hash"):
            CheckpointJournal.resume(path, fp, groups)

    def test_old_all_gotoh_batched_journal_refused(self, tmp_path):
        """A journal written when ``batched`` swept every group with the
        gotoh row kernel (gap-split tail included) is refused under the
        cost-model default, never resumed with different kernels."""
        rng = np.random.default_rng(33)
        lengths = [*rng.integers(20, 200, size=14), 1_500, 1_800]
        mixed = Database.from_sequences(
            [Sequence.random(f"t{i}", int(n), rng)
             for i, n in enumerate(lengths)]
        )
        query = random_protein(60, rng, id="q")
        old_groups = pack_database(mixed, DEFAULT_GROUP_SIZE)
        fp = search_fingerprint(
            np.asarray(query.codes), BLOSUM62, GP, DEFAULT_GROUP_SIZE,
            mixed, engines=("gotoh",) * len(old_groups),
        )
        profile = QueryProfile(query.codes, BLOSUM62)
        path = tmp_path / "old-default.wal"
        with CheckpointJournal.create(path, fp, len(old_groups)) as journal:
            for gi, group in enumerate(old_groups):
                journal.append(
                    gi, group, score_packed_group(profile, group, GP)
                )
        engine = BatchedEngine(BLOSUM62, GP)
        _, report = engine.search(query, mixed)
        # The premise: the default no longer sweeps every group with
        # gotoh (the cost model sends this whole database to strips).
        assert set(report.lane_engines) == {"strips"}
        with pytest.raises(CheckpointError, match="different search"):
            engine.search(query, mixed, checkpoint=path, resume=True)

    def test_resume_requires_checkpoint_path(self, db, query):
        with pytest.raises(ValueError, match="checkpoint"):
            BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=4)).search(
                query, db, resume=True
            )


class TestHashing:
    def test_fingerprint_sensitivity(self, db, query):
        base = search_fingerprint(
            np.asarray(query.codes), BLOSUM62, GP, 4, db
        )
        assert base == search_fingerprint(
            np.asarray(query.codes), BLOSUM62, GP, 4, db
        )
        assert base != search_fingerprint(
            np.asarray(query.codes), BLOSUM62, GP, 8, db
        )
        assert base != search_fingerprint(
            np.asarray(query.codes), BLOSUM62, GP, 4, db, budget_bytes=1 << 20
        )
        assert base != search_fingerprint(
            np.asarray(query.codes), BLOSUM62,
            GapPenalty(rho=12, sigma=1), 4, db,
        )

    def test_group_hash_sensitivity(self, db):
        groups = pack_database(db, 4)
        digests = {group_content_hash(g) for g in groups}
        assert len(digests) == len(groups)  # all distinct
        assert all(len(d) == 16 for d in digests)


class TestAtomicWrite:
    def test_writes_and_returns_path(self, tmp_path):
        target = tmp_path / "scores.tsv"
        out = atomic_write_text(target, "hello\n")
        assert out == target
        assert target.read_text() == "hello\n"

    def test_overwrites_atomically_leaving_no_temp(self, tmp_path):
        target = tmp_path / "report.json"
        atomic_write_text(target, "v1")
        atomic_write_text(target, "v2")
        assert target.read_text() == "v2"
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]
