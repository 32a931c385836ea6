"""Pre-packed on-disk database store (``.rdb``) with a trust-nothing open.

Every search used to re-read FASTA, re-sort, re-pack and re-encode the
database, and the pool executor re-shipped whole packed lane matrices
through pickle on every dispatch.  SWAPHI-style preprocessed database
partitions argue for building the encoded, length-sorted, engine-ready
representation **once, offline, on disk**; this module is that artifact
plus the paranoid reader it requires.  A persistent file that outlives
the process is hostile input: it sees the same torn-write, corruption
and staleness failure modes the checkpoint journal already defends
against, so the store borrows the journal's idioms — CRC32-framed
sections, magic/version tokens, fsync-then-rename atomic builds — and
refuses every defect with a typed :class:`DatabaseFormatError`.

On-disk layout (all integers little-endian; see ``docs/db-format.md``)::

    [ 0:8]   MAGIC "RPRODB01"
    [ 8:72]  64-byte free-text comment (latin-1, space padded; the one
             region *not* covered by any checksum — flipping a byte
             here must never change a score)
    [72:76]  u32: header JSON length
    [76:..]  header JSON (ascii) + u32 CRC32 of the JSON bytes
    [..:EOF] binary sections, back to back, in header-table order:
             lengths / offsets / sort_order / id_offsets / ids / codes

The header JSON carries the format version, a sha256 **fingerprint** of
the database content, the alphabet, and a section table (relative
offset, byte length, CRC32, dtype, element count per section).  The
residue blob (``codes``) is last so :func:`open_database` can
``np.memmap`` it and validate everything else without touching it.

Validation is tiered:

* ``verify="fast"`` (the open default) checks the magic, the header
  frame and CRC, the version, the section table's bounds, and the CRC
  plus structural consistency of every *index* section (lengths,
  offsets, sort order, ids) — O(index), never O(residues);
* ``verify="deep"`` additionally CRC-walks the residue blob,
  recomputes the content fingerprint, and checks that the sort order
  is the stable length argsort, refusing on any disagreement.

A store holds the index and the residues, never a plan: every search
plans its groups from the index for its own query
(:func:`~repro.engine.kernels.plan_groups`).

``fallback="fasta"`` degrades gracefully: instead of dying on a
refused store, :func:`open_database` warns, charges the
``engine.dbstore.fallbacks`` counter and returns an in-memory
:class:`~repro.sequence.database.Database` streamed from the original
FASTA — the pre-store pack path, exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
import time
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.alphabet import DNA, PROTEIN, Alphabet
from repro.engine.pack import ChunkPlan, PackedGroup, pack_group, plan_chunks
from repro.obs import current as obs_current
from repro.sequence.database import Database
from repro.sequence.fasta import iter_fasta_file

__all__ = [
    "COMMENT_BYTES",
    "FORMAT_VERSION",
    "MAGIC",
    "DatabaseFormatError",
    "DatabaseStore",
    "StoreGroupRef",
    "StoreInfo",
    "build_store",
    "build_store_from_fasta",
    "database_fingerprint",
    "open_database",
]

#: Store file magic: identifies the format in one token (the trailing
#: ``01`` is cosmetic; the authoritative version lives in the header).
MAGIC = b"RPRODB01"

#: Header JSON format version.  Bump on any incompatible layout change;
#: the reader refuses version skew instead of guessing.
FORMAT_VERSION = 2

#: Bytes of free-form comment between the magic and the header frame.
#: Informational only and deliberately outside every checksum: it is the
#: single region where corruption is *harmless* (scores cannot change),
#: which the bit-flip fuzzer test asserts.
COMMENT_BYTES = 64

#: Header frame: u32 JSON length; the JSON is followed by a u32 CRC32.
_LEN = struct.Struct("<I")
_CRC = struct.Struct("<I")

#: Section names, in file order.  ``codes`` is last so every other
#: section can be validated without touching the residue blob.
_SECTIONS = ("lengths", "offsets", "sort_order", "id_offsets", "ids", "codes")

#: Validation tiers accepted by :func:`open_database`.
_VERIFY_TIERS = ("fast", "deep")

_ALPHABETS: dict[str, Alphabet] = {"protein": PROTEIN, "dna": DNA}

#: Bytes per chunk when CRC-walking the memmapped residue blob in deep
#: verification (bounds the resident working set on huge stores).
_DEEP_CHUNK = 1 << 24


class DatabaseFormatError(Exception):
    """An ``.rdb`` store cannot be trusted (or read) as built.

    Raised on every defect the tiered validation detects — bad magic,
    version skew, truncated or overlapping sections, CRC mismatches,
    index/fingerprint disagreement — and on plain I/O failure
    to read the file.  The refusal is deliberate: rebuilding from FASTA
    is always correct, searching a silently wrong database never is.
    """


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def database_fingerprint(db: Database) -> str:
    """sha256 content identity of a materialized database.

    Covers the alphabet, the sequence count, every length, every
    residue code and every id — any edit that could change a score (or
    scatter scores to different ids) changes the digest.  Stored in the
    header at build time, recomputed by deep verification, and folded
    into :func:`~repro.engine.checkpoint.search_fingerprint` so a
    checkpoint journal refuses to resume against a rebuilt store.
    """
    db._require_residues()
    h = hashlib.sha256()
    h.update(MAGIC)
    h.update(struct.pack("<q", FORMAT_VERSION))
    h.update(db.alphabet.symbols.encode("utf-8", "replace"))
    h.update(struct.pack("<q", len(db)))
    h.update(np.ascontiguousarray(db.lengths, dtype="<i8").tobytes())
    h.update(_ids_blob(db)[0])
    for start in range(0, db.total_residues, _DEEP_CHUNK):
        h.update(db._codes[start : start + _DEEP_CHUNK])
    return h.hexdigest()


def _ids_blob(db: Database) -> tuple[bytes, np.ndarray]:
    """Concatenated UTF-8 id bytes plus their ``(n + 1,)`` offsets."""
    encoded = [
        db.id_of(i).encode("utf-8", "replace") for i in range(len(db))
    ]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in encoded], out=offsets[1:])
    return b"".join(encoded), offsets


# ----------------------------------------------------------------------
# Store handle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StoreInfo:
    """Build/inspect summary of one ``.rdb`` store."""

    path: Path
    fingerprint: str
    file_bytes: int
    sequences: int
    residues: int
    group_size: int
    comment: str


@dataclass(frozen=True)
class StoreGroupRef:
    """A picklable *reference* to one packed group of a store.

    This is what the executor ships to pool workers instead of the
    packed lane matrices themselves: ~a hundred ``int64`` indices plus
    the kernel name, independent of sequence length.  The worker
    rebuilds the identical :class:`~repro.engine.pack.PackedGroup` from
    its own memmapped store (:func:`~repro.engine.pack.pack_group` is
    deterministic, and the store fingerprint pins the content), which
    is what fixes the workers>1 pickle re-ship regression.
    """

    indices: np.ndarray
    lane_engine: str = "gotoh"

    @classmethod
    def of(cls, group: PackedGroup) -> "StoreGroupRef":
        return cls(group.indices, group.lane_engine)

    def materialize(self, store: "DatabaseStore") -> PackedGroup:
        return pack_group(
            store.database, self.indices, lane_engine=self.lane_engine
        )


class DatabaseStore:
    """An opened (validated, memmapped) ``.rdb`` database store.

    ``database`` is a regular :class:`~repro.sequence.database.Database`
    whose residue codes are a read-only ``np.memmap`` view of the file,
    so every engine works on it unchanged; ``lengths``/ids/offsets are
    small in-memory arrays loaded (and CRC-checked) from the index
    sections, so lengths-only consumers — the hetero threshold tuner,
    ``repro db info`` — never fault the residue blob in.
    """

    def __init__(
        self,
        path: Path,
        fingerprint: str,
        database: Database,
        group_size: int,
        sort_order: np.ndarray,
        comment: str,
    ) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.database = database
        self.group_size = group_size
        self.sort_order = sort_order
        self.comment = comment

    def __len__(self) -> int:
        return len(self.database)

    @property
    def lengths(self) -> np.ndarray:
        """Per-sequence lengths from the store *index* (O(index) reads:
        the residue blob is never touched)."""
        return self.database.lengths

    def plan_for(self, kind: str) -> ChunkPlan:
        """The fixed-size chunking of the sorted index at the store's
        group size: :func:`~repro.engine.pack.plan_chunks` over the
        sorted lengths.

        ``kind`` must be ``"row"``, the only plan a store reports.
        Searches do not read it; they plan per query with
        :func:`~repro.engine.kernels.plan_groups`.
        """
        if kind != "row":
            raise ValueError(f"plan kind must be 'row', got {kind!r}")
        return plan_chunks(self.lengths[self.sort_order], self.group_size)


# ----------------------------------------------------------------------
# Build
# ----------------------------------------------------------------------
def _write_section(fh: IO[bytes], payload: bytes | memoryview) -> None:
    """Write one section's raw bytes (separate function so tests and the
    CI kill-mid-build job can interpose delays or failures)."""
    fh.write(payload)


def _section_entry(
    name: str, offset: int, payload: bytes | memoryview,
    dtype: str, count: int,
) -> dict[str, Any]:
    return {
        "name": name,
        "offset": offset,
        "bytes": len(payload),
        "crc32": zlib.crc32(payload),
        "dtype": dtype,
        "count": count,
    }


def build_store(
    db: Database,
    path: str | os.PathLike[str],
    *,
    group_size: int = 128,
    comment: str = "",
) -> StoreInfo:
    """Build a ``.rdb`` store from a materialized database, atomically.

    The file is assembled in a temp file in the target directory,
    ``fsync``'d, then renamed over ``path`` (and the directory fsync'd),
    so a SIGKILL at any instant leaves either the old store or no store
    — never a readable partial ``.rdb``.  The stable length sort is
    stored once, so a search plans its groups from the index without
    re-sorting; ``group_size`` is recorded for ``repro db info`` and
    :meth:`DatabaseStore.plan_for`.
    """
    if group_size <= 0:
        raise ValueError(f"group size must be positive, got {group_size}")
    db._require_residues()
    if len(db) == 0:
        raise ValueError("cannot build a store from an empty database")
    if db.alphabet.name not in _ALPHABETS:
        raise ValueError(
            f"unknown alphabet {db.alphabet.name!r}; storable alphabets: "
            f"{sorted(_ALPHABETS)}"
        )
    started = time.perf_counter()
    instr = obs_current()
    with instr.span("db_build"):
        order = np.argsort(db.lengths, kind="stable")
        ids_bytes, id_offsets = _ids_blob(db)
        fingerprint = database_fingerprint(db)

        payloads: list[tuple[str, bytes | memoryview, str, int]] = [
            ("lengths", _le64(db.lengths), "<i8", len(db)),
            ("offsets", _le64(db._offsets), "<i8", len(db) + 1),
            ("sort_order", _le64(order), "<i8", len(db)),
            ("id_offsets", _le64(id_offsets), "<i8", len(db) + 1),
            ("ids", ids_bytes, "bytes", len(ids_bytes)),
            ("codes", memoryview(db._codes), "u1", db.total_residues),
        ]
        sections = []
        rel = 0
        for name, payload, dtype, count in payloads:
            sections.append(_section_entry(name, rel, payload, dtype, count))
            rel += len(payload)
        header = json.dumps(
            {
                "version": FORMAT_VERSION,
                "fingerprint": fingerprint,
                "name": db.name,
                "alphabet": db.alphabet.name,
                "sequences": len(db),
                "residues": db.total_residues,
                "group_size": group_size,
                "sections": sections,
            },
            separators=(",", ":"),
        ).encode("ascii")
        comment_field = comment.encode("latin-1", "replace")[:COMMENT_BYTES]
        comment_field = comment_field.ljust(COMMENT_BYTES, b" ")

        target = Path(path)
        fd, tmp = tempfile.mkstemp(
            dir=str(target.parent) or ".",
            prefix=target.name + ".", suffix=".tmp",
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(MAGIC)
                fh.write(comment_field)
                fh.write(_LEN.pack(len(header)))
                fh.write(header)
                fh.write(_CRC.pack(zlib.crc32(header)))
                for _name, payload, _dtype, _count in payloads:
                    _write_section(fh, payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
            _fsync_dir(target.parent)
        except BaseException:
            try:
                os.unlink(tmp)
            # Best-effort cleanup of the temp file while re-raising the
            # real error; the temp may already be renamed or gone.
            except OSError:  # repro-lint: disable=RPL105
                pass
            raise
    instr.count("engine.dbstore.builds", 1)
    if instr.enabled:
        instr.observe(
            "engine.dbstore.build_seconds", time.perf_counter() - started
        )
    file_bytes = target.stat().st_size
    return StoreInfo(
        path=target, fingerprint=fingerprint, file_bytes=file_bytes,
        sequences=len(db), residues=db.total_residues,
        group_size=group_size, comment=comment,
    )


def build_store_from_fasta(
    fasta: str | os.PathLike[str],
    path: str | os.PathLike[str],
    *,
    group_size: int = 128,
    comment: str = "",
    name: str | None = None,
) -> StoreInfo:
    """``repro db build``: stream a FASTA file into a ``.rdb`` store.

    Records stream through :func:`~repro.sequence.fasta.iter_fasta_file`
    (gzip sniffed by magic bytes, latin-1 header hardening) and
    accumulate via :meth:`Database.from_stream`, so the decoded text is
    never held whole in memory — the peak working set is the packed
    code arrays, not the file.
    """
    db = Database.from_stream(
        iter_fasta_file(fasta),
        name=name or Path(os.fspath(fasta)).stem,
    )
    return build_store(db, path, group_size=group_size, comment=comment)


def _le64(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<i8").tobytes()


def _fsync_dir(directory: Path) -> None:
    """fsync the directory so the rename itself is durable."""
    try:
        fd = os.open(str(directory) or ".", os.O_RDONLY)
    # Directories are not openable for fsync on every platform; the
    # rename is still atomic, only its durability window widens.
    except OSError:  # repro-lint: disable=RPL105
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# Open / validate
# ----------------------------------------------------------------------
def open_database(
    path: str | os.PathLike[str],
    *,
    verify: str = "fast",
    fallback: str | None = None,
    fasta: str | os.PathLike[str] | None = None,
) -> DatabaseStore | Database:
    """Open a ``.rdb`` store, memory-mapping the residue blob.

    ``verify`` selects the validation tier: ``"fast"`` (default)
    checks the header and every index section — O(index); ``"deep"``
    additionally CRC-walks the residue blob, recomputes the content
    fingerprint and re-checks the length sort — O(database).
    Every defect raises :class:`DatabaseFormatError`.

    ``fallback="fasta"`` (with ``fasta=<path>``) degrades gracefully:
    a refused store logs a :class:`UserWarning`, charges the
    ``engine.dbstore.fallbacks`` counter, and the original FASTA is
    streamed into an in-memory :class:`Database` — the exact pre-store
    pack path — instead of the error propagating.
    """
    if verify not in _VERIFY_TIERS:
        raise ValueError(
            f"verify must be one of {_VERIFY_TIERS}, got {verify!r}"
        )
    if fallback not in (None, "fasta"):
        raise ValueError(
            f"fallback must be None or 'fasta', got {fallback!r}"
        )
    fallback_fasta = fasta if fallback == "fasta" else None
    if fallback == "fasta" and fallback_fasta is None:
        raise ValueError("fallback='fasta' requires the fasta= path")
    instr = obs_current()
    started = time.perf_counter()
    try:
        with instr.span("db_open"):
            store = _open_validated(Path(path), deep=(verify == "deep"))
    except DatabaseFormatError as exc:
        instr.count("engine.dbstore.refusals", 1)
        if fallback_fasta is None:
            raise
        instr.count("engine.dbstore.fallbacks", 1)
        warnings.warn(
            f"database store {os.fspath(path)} refused ({exc}); "
            f"falling back to the in-memory FASTA pack path via "
            f"{os.fspath(fallback_fasta)}",
            UserWarning,
            stacklevel=2,
        )
        return Database.from_stream(
            iter_fasta_file(fallback_fasta),
            name=Path(os.fspath(fallback_fasta)).stem,
        )
    instr.count("engine.dbstore.opens", 1)
    if verify == "deep":
        instr.count("engine.dbstore.verify_deep", 1)
    else:
        instr.count("engine.dbstore.verify_fast", 1)
    instr.count(
        "engine.dbstore.open_mmap_bytes", store.database.total_residues
    )
    if instr.enabled:
        instr.observe(
            "engine.dbstore.open_seconds", time.perf_counter() - started
        )
    return store


def _refuse(path: Path, why: str) -> DatabaseFormatError:
    return DatabaseFormatError(
        f"{path} is not a trustworthy database store: {why}; rebuild it "
        "with `repro db build` (or search the FASTA directly)"
    )


def _open_validated(path: Path, *, deep: bool) -> DatabaseStore:
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            head = fh.read(len(MAGIC) + COMMENT_BYTES + _LEN.size)
    except OSError as exc:
        raise _refuse(path, f"cannot read it ({exc})") from exc
    preamble = len(MAGIC) + COMMENT_BYTES + _LEN.size
    if len(head) < preamble or head[: len(MAGIC)] != MAGIC:
        raise _refuse(path, "bad magic (not an .rdb file, or truncated)")
    comment = head[len(MAGIC) : len(MAGIC) + COMMENT_BYTES].decode(
        "latin-1"
    ).rstrip()
    (header_len,) = _LEN.unpack_from(head, len(MAGIC) + COMMENT_BYTES)
    data_start = preamble + header_len + _CRC.size
    if data_start > size:
        raise _refuse(path, "truncated header frame")
    try:
        with open(path, "rb") as fh:
            fh.seek(preamble)
            header_bytes = fh.read(header_len)
            crc_bytes = fh.read(_CRC.size)
    except OSError as exc:
        raise _refuse(path, f"cannot read it ({exc})") from exc
    if len(header_bytes) != header_len or len(crc_bytes) != _CRC.size:
        raise _refuse(path, "truncated header frame")
    if zlib.crc32(header_bytes) != _CRC.unpack(crc_bytes)[0]:
        raise _refuse(path, "header fails its CRC check")
    try:
        header = json.loads(header_bytes.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise _refuse(path, f"header is not valid JSON ({exc})") from exc
    if not isinstance(header, dict):
        raise _refuse(path, "header is not a JSON object")
    if header.get("version") != FORMAT_VERSION:
        raise _refuse(
            path,
            f"format version skew (file v{header.get('version')!r}, "
            f"reader v{FORMAT_VERSION})",
        )
    sections = _validate_section_table(path, header, size - data_start)
    raw = _load_index_sections(path, data_start, sections)
    store = _assemble(path, data_start, header, sections, raw, comment)
    if deep:
        _verify_deep(path, data_start, header, sections, store)
    return store


def _validate_section_table(
    path: Path, header: dict[str, Any], data_bytes: int
) -> dict[str, dict[str, Any]]:
    table = header.get("sections")
    if not isinstance(table, list):
        raise _refuse(path, "header has no section table")
    by_name: dict[str, dict[str, Any]] = {}
    cursor = 0
    for entry in table:
        if not isinstance(entry, dict):
            raise _refuse(path, "malformed section table entry")
        name = entry.get("name")
        offset, nbytes = entry.get("offset"), entry.get("bytes")
        if (
            name not in _SECTIONS
            or name in by_name
            or not isinstance(offset, int)
            or not isinstance(nbytes, int)
            or not isinstance(entry.get("crc32"), int)
            or not isinstance(entry.get("count"), int)
            or offset != cursor
            or nbytes < 0
        ):
            raise _refuse(path, f"malformed section table entry {name!r}")
        cursor = offset + nbytes
        by_name[str(name)] = entry
    if tuple(by_name) != _SECTIONS:
        raise _refuse(
            path,
            f"section table lists {tuple(by_name)}, expected {_SECTIONS}",
        )
    if cursor != data_bytes:
        raise _refuse(
            path,
            f"sections claim {cursor} data bytes but the file holds "
            f"{data_bytes} (truncated or trailing garbage)",
        )
    fingerprint = header.get("fingerprint")
    if not (
        isinstance(fingerprint, str)
        and len(fingerprint) == 64
        and all(c in "0123456789abcdef" for c in fingerprint)
    ):
        raise _refuse(path, "malformed content fingerprint")
    return by_name


def _load_index_sections(
    path: Path, data_start: int, sections: dict[str, dict[str, Any]]
) -> dict[str, bytes]:
    """Read and CRC-check every section except the residue blob."""
    raw: dict[str, bytes] = {}
    try:
        with open(path, "rb") as fh:
            for name in _SECTIONS[:-1]:
                entry = sections[name]
                fh.seek(data_start + entry["offset"])
                payload = fh.read(entry["bytes"])
                if len(payload) != entry["bytes"]:
                    raise _refuse(path, f"truncated section {name!r}")
                if zlib.crc32(payload) != entry["crc32"]:
                    raise _refuse(
                        path, f"section {name!r} fails its CRC check"
                    )
                raw[name] = payload
    except OSError as exc:
        raise _refuse(path, f"cannot read it ({exc})") from exc
    return raw


def _assemble(
    path: Path,
    data_start: int,
    header: dict[str, Any],
    sections: dict[str, dict[str, Any]],
    raw: dict[str, bytes],
    comment: str,
) -> DatabaseStore:
    n = header.get("sequences")
    residues = header.get("residues")
    group_size = header.get("group_size")
    if not (
        isinstance(n, int) and n > 0
        and isinstance(residues, int) and residues > 0
        and isinstance(group_size, int) and group_size > 0
    ):
        raise _refuse(path, "malformed sequence/residue/group counts")
    alphabet = _ALPHABETS.get(str(header.get("alphabet")))
    if alphabet is None:
        raise _refuse(
            path, f"unknown alphabet {header.get('alphabet')!r}"
        )
    lengths = _int64_section(path, raw, sections, "lengths", n)
    offsets = _int64_section(path, raw, sections, "offsets", n + 1)
    order = _int64_section(path, raw, sections, "sort_order", n)
    id_offsets = _int64_section(path, raw, sections, "id_offsets", n + 1)
    if sections["codes"]["count"] != residues or (
        sections["codes"]["bytes"] != residues
    ):
        raise _refuse(path, "residue blob size disagrees with the header")
    if (
        offsets[0] != 0
        or int(offsets[-1]) != residues
        or not np.array_equal(np.diff(offsets), lengths)
        or (lengths.size and int(lengths.min()) <= 0)
    ):
        raise _refuse(path, "offsets/lengths index is inconsistent")
    if not np.array_equal(np.sort(order), np.arange(n, dtype=np.int64)):
        raise _refuse(path, "sort order is not a permutation")
    if np.any(np.diff(lengths[order]) < 0):
        raise _refuse(path, "sort order does not sort the lengths")
    ids = _decode_ids(path, raw["ids"], id_offsets, n)
    try:
        codes = np.memmap(
            path, dtype=np.uint8, mode="r",
            offset=data_start + int(sections["codes"]["offset"]),
            shape=(residues,),
        )
        database = Database(
            lengths, codes, offsets, ids, alphabet,
            name=str(header.get("name", path.stem)),
        )
    except (OSError, ValueError) as exc:
        raise _refuse(
            path, f"cannot assemble the database view ({exc})"
        ) from exc
    order.setflags(write=False)
    return DatabaseStore(
        path=path,
        fingerprint=str(header["fingerprint"]),
        database=database,
        group_size=group_size,
        sort_order=order,
        comment=comment,
    )


def _int64_section(
    path: Path,
    raw: dict[str, bytes],
    sections: dict[str, dict[str, Any]],
    name: str,
    expected: int,
) -> np.ndarray:
    entry = sections[name]
    if entry["count"] != expected or entry["bytes"] != expected * 8:
        raise _refuse(
            path,
            f"section {name!r} holds {entry['count']} entries, "
            f"expected {expected}",
        )
    arr = np.frombuffer(raw[name], dtype="<i8").astype(np.int64)
    return arr


def _decode_ids(
    path: Path, blob: bytes, id_offsets: np.ndarray, n: int
) -> list[str]:
    if (
        id_offsets[0] != 0
        or int(id_offsets[-1]) != len(blob)
        or np.any(np.diff(id_offsets) < 0)
    ):
        raise _refuse(path, "id index is inconsistent")
    try:
        return [
            blob[int(id_offsets[i]) : int(id_offsets[i + 1])].decode("utf-8")
            for i in range(n)
        ]
    except UnicodeDecodeError as exc:
        raise _refuse(path, f"id blob is not valid UTF-8 ({exc})") from exc


def _verify_deep(
    path: Path,
    data_start: int,
    header: dict[str, Any],
    sections: dict[str, dict[str, Any]],
    store: DatabaseStore,
) -> None:
    """The full-CRC walk: residue blob CRC, fingerprint recomputation,
    and the stable length sort, each refusing on disagreement."""
    instr = obs_current()
    with instr.span("db_verify"):
        codes = store.database._codes
        crc = 0
        for start in range(0, codes.size, _DEEP_CHUNK):
            crc = zlib.crc32(codes[start : start + _DEEP_CHUNK], crc)
        if crc != sections["codes"]["crc32"]:
            raise _refuse(path, "residue blob fails its CRC check")
        if database_fingerprint(store.database) != store.fingerprint:
            raise _refuse(
                path,
                "content fingerprint disagrees with the header "
                "(edited or spliced store)",
            )
        expected_order = np.argsort(store.lengths, kind="stable")
        if not np.array_equal(store.sort_order, expected_order):
            raise _refuse(
                path, "sort order is not the stable length argsort"
            )
