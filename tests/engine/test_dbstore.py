"""Pre-packed ``.rdb`` store tests: round trip, refusal, fuzzing.

The contract under test (see :mod:`repro.engine.dbstore` and
``docs/db-format.md``): a store-backed search is **bit-identical** to
the FASTA path for every engine and worker count; every detectable
defect — bad magic, truncation, CRC mismatch, version skew, index
or fingerprint disagreement — is refused with
:class:`DatabaseFormatError`; and the single checksum-exempt region
(the 64-byte comment field) is the only place corruption may pass
undetected, where it must be *harmless*.  The bit-flip fuzzer walks
the whole file asserting exactly that trichotomy: refused, or
comment-region harmless — never silently wrong.
"""

import gzip
import json
import os
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import (
    LANE_KERNELS,
    BatchedEngine,
    CheckpointError,
    DatabaseFormatError,
    DatabaseStore,
    FaultPolicy,
    MemoryBudget,
    SearchConfig,
    StoreGroupRef,
    build_store,
    build_store_from_fasta,
    open_database,
)
from repro.engine.dbstore import (
    COMMENT_BYTES,
    FORMAT_VERSION,
    MAGIC,
    database_fingerprint,
)
from repro.engine.executor import _init_worker, _score_chunk_task
from repro.engine.pack import plan_chunks
from repro.sequence import Database, Sequence, write_fasta
from repro.sequence.fasta import iter_fasta_file, read_fasta_file
from repro.sw import sw_score_scalar

GP = GapPenalty.cudasw_default()
GROUP = 4

_LEN = struct.Struct("<I")
_CRC = struct.Struct("<I")


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(61)
    lengths = np.concatenate([
        rng.integers(8, 60, size=18), rng.integers(120, 260, size=6),
    ])
    return Database.from_sequences(
        [Sequence.random(f"s{i:03d}", int(n), rng)
         for i, n in enumerate(lengths)]
    )


@pytest.fixture(scope="module")
def query():
    rng = np.random.default_rng(62)
    return Sequence.random("q", 36, rng)


@pytest.fixture(scope="module")
def long_query():
    """Long enough that the cost model plans all six groups striped."""
    rng = np.random.default_rng(64)
    return Sequence.random("q-long", 600, rng)


@pytest.fixture(scope="module")
def store_path(db, tmp_path_factory):
    path = tmp_path_factory.mktemp("rdb") / "db.rdb"
    build_store(db, path, group_size=GROUP, comment="test store")
    return path


@pytest.fixture(scope="module")
def store(store_path):
    opened = open_database(store_path, verify="deep")
    assert isinstance(opened, DatabaseStore)
    return opened


@pytest.fixture(scope="module")
def degenerate(query, tmp_path_factory):
    """Degenerate databases as ``(name, database, store, reference)``:
    one length-1 subject, one group under the group size, and an
    all-tail database of 2,000-2,600 aa subjects."""
    rng = np.random.default_rng(63)
    shapes = {
        "length-1": [1],
        "one-short-group": [5, 17, 40],
        "all-tail": [2000, 2150, 2310, 2480, 2600],
    }
    out = []
    for name, lengths in shapes.items():
        database = Database.from_sequences(
            [Sequence.random(f"{name}-{i}", n, rng)
             for i, n in enumerate(lengths)]
        )
        path = tmp_path_factory.mktemp("rdb") / f"{name}.rdb"
        build_store(database, path, group_size=GROUP)
        reference = np.array(
            [
                sw_score_scalar(query.codes, database.codes_of(i),
                                BLOSUM62, GP)
                for i in range(len(database))
            ],
            dtype=np.int64,
        )
        out.append((name, database, _open_deep(path), reference))
    return out


def _scalar_scores(db, query):
    return np.array(
        [
            sw_score_scalar(query.codes, db.codes_of(i), BLOSUM62, GP)
            for i in range(len(db))
        ],
        dtype=np.int64,
    )


@pytest.fixture(scope="module")
def reference(db, query):
    return _scalar_scores(db, query)


@pytest.fixture(scope="module")
def long_reference(db, long_query):
    return _scalar_scores(db, long_query)


# ----------------------------------------------------------------------
# Round trip
# ----------------------------------------------------------------------
def test_round_trip(db, store):
    assert store.fingerprint == database_fingerprint(db)
    assert len(store) == len(db)
    assert store.group_size == GROUP
    assert store.comment == "test store"
    view = store.database
    assert np.array_equal(view.lengths, db.lengths)
    assert np.array_equal(view._codes, db._codes)
    assert [view.id_of(i) for i in range(len(view))] == [
        db.id_of(i) for i in range(len(db))
    ]
    assert np.array_equal(
        store.sort_order, np.argsort(db.lengths, kind="stable")
    )


def test_build_refuses_bad_inputs(db, tmp_path):
    with pytest.raises(ValueError, match="group size"):
        build_store(db, tmp_path / "x.rdb", group_size=0)
    lengths_only = Database.from_lengths(db.lengths, db.alphabet)
    with pytest.raises(ValueError, match="lengths-only"):
        build_store(lengths_only, tmp_path / "x.rdb")
    with pytest.raises(ValueError, match="zero sequences"):
        Database.from_sequences([])


#: One search config per lane kernel whose plan sweeps every group with
#: that kernel (``gotoh`` at the 36-aa query, ``striped`` at the 600-aa
#: one, ``strips`` past a zero split), plus a fixed, the tuned and a
#: split past every length, under the engine's second name.
LANE_CONFIGS = {
    "gotoh": SearchConfig(group_size=GROUP),
    "striped": SearchConfig(group_size=GROUP),
    "strips": SearchConfig(
        engine="hetero", group_size=GROUP, split_threshold=0
    ),
    "hetero": SearchConfig(
        engine="hetero", group_size=GROUP, split_threshold=100
    ),
    "hetero-auto": SearchConfig(engine="hetero", group_size=GROUP),
    "hetero-no-tail": SearchConfig(
        engine="hetero", group_size=GROUP, split_threshold=1_000_000
    ),
}


@pytest.mark.parametrize("lane", list(LANE_CONFIGS))
@pytest.mark.parametrize("workers", [1, 2])
def test_store_scores_bit_identical(
    db, query, long_query, store, reference, long_reference, degenerate,
    lane, workers,
):
    """Every lane kernel, serial and on a pool forced by an explicit
    fault policy, from FASTA and from the store, is bit-identical to
    ``sw_score_scalar`` and sweeps with the expected kernels; so are
    the degenerate databases."""
    assert set(LANE_KERNELS) < set(LANE_CONFIGS)
    engine = BatchedEngine(
        BLOSUM62, GP,
        replace(LANE_CONFIGS[lane], workers=workers, fault_policy=FaultPolicy()),
    )
    # The cost model sweeps the 36-aa query's bulk with gotoh, and the
    # tuned split leaves this database no tail.
    expected = {
        "hetero": {"gotoh", "strips"},
        "hetero-auto": {"gotoh"},
        "hetero-no-tail": {"gotoh"},
    }.get(lane, {lane})
    q, ref = (
        (long_query, long_reference)
        if lane == "striped"
        else (query, reference)
    )
    for target in (db, store):
        scores, report = engine.search(q, target)
        assert np.array_equal(scores, ref)
        assert set(report.lane_engines) == expected
    for name, small_db, small_store, small_reference in degenerate:
        for target in (small_db, small_store):
            scores, _ = engine.search(query, target)
            assert np.array_equal(scores, small_reference), name


def test_worker_materializes_group_refs(db, query, store):
    """The pool payload path, in process: a worker holding only the
    store path rebuilds identical groups from index references."""
    from repro.engine.pack import pack_database

    groups = pack_database(db, GROUP)
    _init_worker(query.codes, BLOSUM62, GP, None, "off",
                 str(store.path), store.fingerprint)
    by_value, _ = _score_chunk_task([(i, g) for i, g in enumerate(groups)])
    by_ref, _ = _score_chunk_task(
        [(i, StoreGroupRef.of(g)) for i, g in enumerate(groups)]
    )
    assert all(np.array_equal(a, b) for a, b in zip(by_value, by_ref))


def test_worker_refuses_fingerprint_skew(query, store):
    with pytest.raises(RuntimeError, match="changed while the search"):
        _init_worker(query.codes, BLOSUM62, GP, None, "off",
                     str(store.path), "0" * 64)


def test_worker_refuses_a_path_that_is_not_a_store(
    db, query, store, monkeypatch
):
    """A typed error, not an assert: ``python -O`` keeps the guard."""
    import repro.engine.executor as executor

    monkeypatch.setattr(executor, "open_database", lambda *a, **k: db)
    with pytest.raises(RuntimeError, match="did not open as a database"):
        _init_worker(query.codes, BLOSUM62, GP, None, "off",
                     str(store.path), store.fingerprint)


# ----------------------------------------------------------------------
# Refusals
# ----------------------------------------------------------------------
def _open_deep(path):
    return open_database(path, verify="deep")


def test_refuses_missing_file(tmp_path):
    with pytest.raises(DatabaseFormatError, match="cannot read"):
        _open_deep(tmp_path / "nope.rdb")


def test_refuses_bad_magic(store_path, tmp_path):
    data = bytearray(store_path.read_bytes())
    data[:4] = b"XXXX"
    bad = tmp_path / "magic.rdb"
    bad.write_bytes(bytes(data))
    with pytest.raises(DatabaseFormatError, match="bad magic"):
        _open_deep(bad)


@pytest.mark.parametrize("drop", [1, 7, 4096])
def test_refuses_truncation(store_path, tmp_path, drop):
    data = store_path.read_bytes()
    bad = tmp_path / f"trunc{drop}.rdb"
    bad.write_bytes(data[: len(data) - drop])
    with pytest.raises(DatabaseFormatError):
        _open_deep(bad)
    # fast tier must refuse truncation too: the section table no longer
    # matches the file size.
    with pytest.raises(DatabaseFormatError):
        open_database(bad, verify="fast")


def _header_span(data: bytes) -> tuple[int, int]:
    """(start, end) byte offsets of the header JSON in the file."""
    start = len(MAGIC) + COMMENT_BYTES + _LEN.size
    (header_len,) = _LEN.unpack_from(data, len(MAGIC) + COMMENT_BYTES)
    return start, start + header_len


def _reframe(src: Path, dst: Path, mutate) -> Path:
    """Rewrite a store with a mutated header JSON, CRC re-signed.

    This forges a store whose header frame is *internally valid* —
    correct length, correct CRC — so the open path must refuse on the
    header's content, not its framing.
    """
    data = src.read_bytes()
    start, end = _header_span(data)
    header = json.loads(data[start:end].decode("ascii"))
    mutate(header)
    new = json.dumps(header, separators=(",", ":")).encode("ascii")
    out = (
        data[: len(MAGIC) + COMMENT_BYTES]
        + _LEN.pack(len(new)) + new + _CRC.pack(zlib.crc32(new))
        + data[end + _CRC.size :]
    )
    dst.write_bytes(out)
    return dst


def test_refuses_version_skew(store_path, tmp_path):
    """A newer store, and a version 1 store (which held a group
    geometry section), are both refused before any section is read."""
    for version in (FORMAT_VERSION - 1, FORMAT_VERSION + 1):

        def bump(h):
            h["version"] = version

        bad = _reframe(store_path, tmp_path / f"skew{version}.rdb", bump)
        with pytest.raises(DatabaseFormatError, match="version skew"):
            open_database(bad, verify="fast")


def test_refuses_fingerprint_tamper(store_path, tmp_path):
    def swap(h):
        h["fingerprint"] = "0" * 64

    bad = _reframe(store_path, tmp_path / "fp.rdb", swap)
    # Fast tier cannot know (fingerprint recompute is O(database), the
    # fast tier's explicit non-goal) ...
    opened = open_database(bad, verify="fast")
    assert isinstance(opened, DatabaseStore)
    # ... deep tier must catch it.
    with pytest.raises(DatabaseFormatError, match="fingerprint"):
        _open_deep(bad)


def test_refuses_index_crc_flip(store_path, tmp_path):
    data = bytearray(store_path.read_bytes())
    _, header_end = _header_span(bytes(data))
    # First byte of the first data section (lengths).
    pos = header_end + _CRC.size
    data[pos] ^= 0xFF
    bad = tmp_path / "crc.rdb"
    bad.write_bytes(bytes(data))
    with pytest.raises(DatabaseFormatError, match="CRC"):
        open_database(bad, verify="fast")


def test_refuses_codes_flip_at_deep_tier(store_path, tmp_path):
    data = bytearray(store_path.read_bytes())
    data[-1] ^= 0x01  # codes is the last section; last byte is residue
    bad = tmp_path / "codes.rdb"
    bad.write_bytes(bytes(data))
    with pytest.raises(DatabaseFormatError, match="residue blob"):
        _open_deep(bad)


# ----------------------------------------------------------------------
# Satellite 1: the bit-flip corruption fuzzer
# ----------------------------------------------------------------------
def test_bit_flip_fuzzer(db, query, store_path, reference, tmp_path):
    """Flip one byte at sampled positions across every region of the
    file; each deep-tier open must either refuse or — comment bytes
    only — produce bit-identical scores.  Never silently wrong."""
    data = store_path.read_bytes()
    comment_lo, comment_hi = len(MAGIC), len(MAGIC) + COMMENT_BYTES
    # Every byte of the preamble (magic + comment + length field +
    # start of the header), then evenly sampled positions to EOF so
    # every section — index and residue blob alike — is hit.
    positions = sorted(set(
        list(range(0, comment_hi + _LEN.size + 8))
        + [int(p) for p in np.linspace(0, len(data) - 1, num=96)]
    ))
    engine = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=GROUP))
    target = tmp_path / "fuzz.rdb"
    harmless = refused = 0
    for pos in positions:
        corrupt = bytearray(data)
        corrupt[pos] ^= 0x5A
        target.write_bytes(bytes(corrupt))
        try:
            opened = open_database(target, verify="deep")
        except DatabaseFormatError:
            refused += 1
            continue
        assert isinstance(opened, DatabaseStore)
        scores, _ = engine.search(query, opened)
        assert np.array_equal(scores, reference), (
            f"byte flip at {pos} opened cleanly but changed scores"
        )
        assert comment_lo <= pos < comment_hi, (
            f"byte flip at {pos} outside the comment field passed deep "
            "verification"
        )
        harmless += 1
        del opened  # release the memmap before the next overwrite
    # The comment field must be tolerated (it is checksum-exempt by
    # design), and everything else must have been refused.
    assert harmless == comment_hi - comment_lo
    assert refused == len(positions) - harmless


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
def test_fallback_to_fasta(db, store_path, tmp_path):
    fasta = tmp_path / "db.fasta"
    write_fasta(list(db), fasta)
    data = store_path.read_bytes()
    bad = tmp_path / "bad.rdb"
    bad.write_bytes(data[:100])
    with obs.collect("counters") as instr:
        with pytest.warns(UserWarning, match="falling back"):
            degraded = open_database(bad, fallback="fasta", fasta=fasta)
    counters = instr.counters.as_dict()
    assert counters["engine.dbstore.refusals"] == 1
    assert counters["engine.dbstore.fallbacks"] == 1
    assert isinstance(degraded, Database)
    assert not isinstance(degraded, DatabaseStore)
    assert np.array_equal(degraded.lengths, db.lengths)
    assert np.array_equal(degraded._codes, db._codes)


def test_refusal_without_fallback_ignores_fasta(db, store_path, tmp_path):
    """A FASTA path alone is no licence to degrade: without
    ``fallback="fasta"`` a refused store raises."""
    fasta = tmp_path / "db.fasta"
    write_fasta(list(db), fasta)
    bad = tmp_path / "bad.rdb"
    bad.write_bytes(store_path.read_bytes()[:100])
    with pytest.raises(DatabaseFormatError):
        open_database(bad, fasta=fasta)


def test_fallback_requires_fasta_path(store_path):
    with pytest.raises(ValueError, match="requires the fasta"):
        open_database(store_path, fallback="fasta")
    with pytest.raises(ValueError, match="verify must be"):
        open_database(store_path, verify="paranoid")


# ----------------------------------------------------------------------
# Atomic builds
# ----------------------------------------------------------------------
def test_failed_build_leaves_nothing(db, tmp_path, monkeypatch):
    import repro.engine.dbstore as dbstore

    def explode(fh, payload):
        raise OSError("disk on fire")

    monkeypatch.setattr(dbstore, "_write_section", explode)
    target = tmp_path / "never.rdb"
    with pytest.raises(OSError, match="disk on fire"):
        build_store(db, target)
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_rebuild_replaces_atomically(db, tmp_path):
    target = tmp_path / "twice.rdb"
    first = build_store(db, target, comment="one")
    second = build_store(db, target, comment="two")
    assert first.fingerprint == second.fingerprint
    opened = open_database(target, verify="deep")
    assert isinstance(opened, DatabaseStore)
    assert opened.comment == "two"


# ----------------------------------------------------------------------
# Checkpoint interplay
# ----------------------------------------------------------------------
def test_checkpoint_refuses_rebuilt_store(db, query, store, tmp_path):
    """A journal written against one store must refuse to resume
    against a rebuilt store with different content — even when every
    length (and therefore the whole geometry) is unchanged."""
    journal = tmp_path / "scan.wal"
    engine = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=GROUP))
    engine.search(query, store, checkpoint=journal)

    rng = np.random.default_rng(63)
    mutated = [
        Sequence.random(db.id_of(i), int(db.lengths[i]), rng)
        for i in range(len(db))
    ]
    other_path = tmp_path / "other.rdb"
    build_store(Database.from_sequences(mutated), other_path,
                group_size=GROUP)
    other = open_database(other_path)
    assert isinstance(other, DatabaseStore)
    assert np.array_equal(other.lengths, store.lengths)
    with pytest.raises(CheckpointError):
        engine.search(query, other, checkpoint=journal, resume=True)


def test_store_vs_fasta_checkpoints_disagree(db, query, store, tmp_path):
    """Conservative by design: a journal from a plain-FASTA search does
    not resume against the same content opened as a store."""
    journal = tmp_path / "fasta.wal"
    engine = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=GROUP))
    engine.search(query, db, checkpoint=journal)
    with pytest.raises(CheckpointError):
        engine.search(query, store, checkpoint=journal, resume=True)


# ----------------------------------------------------------------------
# Planning and budget
# ----------------------------------------------------------------------
def test_stored_plan_with_budget_matches_packing(db, query, store):
    """A budgeted search of the store plans from its in-memory index
    exactly as the FASTA search plans from the database: the same
    groups and the same scores."""
    budget = MemoryBudget(max_group_bytes=200_000)
    plain = BatchedEngine(
        BLOSUM62, GP,
        SearchConfig(group_size=GROUP, memory_budget=budget),
    )
    base, base_report = plain.search(query, db)
    from_store, store_report = plain.search(query, store)
    assert np.array_equal(base, from_store)
    assert base_report.n_groups == store_report.n_groups
    assert base_report.group_size == store_report.group_size


def test_plan_for_is_plan_chunks_over_the_sorted_index(db, store):
    """``plan_for("row")`` is computed on demand, not stored: it equals
    :func:`plan_chunks` over the sorted lengths at the store's group
    size."""
    sorted_lengths = np.sort(db.lengths, kind="stable")
    assert store.plan_for("row") == plan_chunks(sorted_lengths, GROUP)


def test_plan_for_validates_kind(store):
    for kind in ("diagonal", "column"):
        with pytest.raises(ValueError, match="plan kind"):
            store.plan_for(kind)


# ----------------------------------------------------------------------
# Satellite 6: threshold tuner reads the store index
# ----------------------------------------------------------------------
def test_tuner_accepts_store(db, store):
    """The tuner plans from a store's in-memory index lengths."""
    from repro.app.threshold import tune_split_threshold

    direct = tune_split_threshold(db.lengths, group_size=GROUP)
    via_store = tune_split_threshold(store.lengths, group_size=GROUP)
    assert via_store == direct


# ----------------------------------------------------------------------
# Satellite 2: streaming FASTA + Database.from_stream
# ----------------------------------------------------------------------
def test_from_stream_matches_from_sequences(db, tmp_path):
    fasta = tmp_path / "db.fasta"
    write_fasta(list(db), fasta)
    records = read_fasta_file(fasta)
    streamed = Database.from_stream(iter_fasta_file(fasta), name=db.name)
    eager = Database.from_sequences(records, name=db.name)
    assert np.array_equal(streamed.lengths, eager.lengths)
    assert np.array_equal(streamed._codes, eager._codes)
    assert [streamed.id_of(i) for i in range(len(streamed))] == [
        eager.id_of(i) for i in range(len(eager))
    ]
    with pytest.raises(ValueError, match="zero sequences"):
        Database.from_stream(iter(()))


def test_build_from_gzipped_fasta(db, store, tmp_path):
    fasta = tmp_path / "db.fasta"
    write_fasta(list(db), fasta)
    gz = tmp_path / "db.fasta.gz"
    gz.write_bytes(gzip.compress(fasta.read_bytes()))
    info = build_store_from_fasta(gz, tmp_path / "gz.rdb",
                                  group_size=GROUP)
    assert info.fingerprint == store.fingerprint
    assert info.sequences == len(db)


def test_from_stream_small_chunks(db):
    """Chunked accumulation concatenates correctly across boundaries."""
    streamed = Database.from_stream(iter(list(db)), chunk_residues=64)
    assert np.array_equal(streamed._codes, db._codes)
    assert np.array_equal(streamed.lengths, db.lengths)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_open_and_build_instrumentation(db, tmp_path):
    with obs.collect("full") as instr:
        build_store(db, tmp_path / "obs.rdb", group_size=GROUP)
        open_database(tmp_path / "obs.rdb", verify="deep")
    counters = instr.counters.as_dict()
    assert counters["engine.dbstore.builds"] == 1
    assert counters["engine.dbstore.opens"] == 1
    assert counters["engine.dbstore.verify_deep"] == 1
    assert counters["engine.dbstore.open_mmap_bytes"] == db.total_residues
    spans = {
        span.name
        for root in instr.tracer.roots
        for _path, span in root.walk()
    }
    assert {"db_build", "db_open", "db_verify"} <= spans
    histograms = instr.histograms.as_dict()
    assert histograms["engine.dbstore.build_seconds"]["count"] == 1
    assert histograms["engine.dbstore.open_seconds"]["count"] == 1
