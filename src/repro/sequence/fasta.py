"""Streaming FASTA reader and writer.

The reader is generator-based so databases larger than memory could in
principle be streamed; in this repository it mostly round-trips the
synthetic databases used by the examples and tests.

:func:`read_fasta_file` is hardened for real-world databases: gzip
compression is detected from the file's magic bytes (not the name) and
streamed transparently, and a non-ASCII byte — common in hand-curated
headers citing authors or organisms — decodes leniently as latin-1 with
a :class:`UserWarning` naming the record, instead of crashing the whole
scan with ``UnicodeDecodeError``.
"""

from __future__ import annotations

import gzip
import io
import os
import warnings
from typing import BinaryIO, Iterable, Iterator, TextIO, cast

from repro.alphabet import PROTEIN, Alphabet
from repro.sequence.sequence import Sequence

__all__ = [
    "iter_fasta_file",
    "read_fasta",
    "read_fasta_file",
    "write_fasta",
]

#: gzip's two magic bytes; sniffed so ``db.fasta`` that is *actually*
#: compressed (a common renaming accident) still streams correctly.
_GZIP_MAGIC = b"\x1f\x8b"


def read_fasta(
    handle: TextIO | Iterable[str] | str,
    alphabet: Alphabet = PROTEIN,
    *,
    strict: bool = False,
) -> Iterator[Sequence]:
    """Yield :class:`Sequence` records from FASTA text.

    Parameters
    ----------
    handle:
        An open text file, any iterable of lines, or a string
        containing FASTA data.
    alphabet:
        Alphabet used to encode residues.
    strict:
        Passed to :meth:`Alphabet.encode`.  The default is lenient because
        real databases contain rare non-standard residue codes (U, O, J)
        that map to the wildcard.

    Records with a header but no residues (``>id`` directly followed by
    another header or end of file — they occur in hand-edited and
    truncated databases) are *skipped* with a :class:`UserWarning`
    naming the record, instead of yielding a zero-length sequence that
    a downstream :meth:`Database.from_sequences` would reject with an
    unrelated "all sequence lengths must be positive" error.
    """
    lines: Iterable[str] = (
        io.StringIO(handle) if isinstance(handle, str) else handle
    )

    header: str | None = None
    chunks: list[str] = []

    def flush(header: str) -> Sequence | None:
        text = "".join(chunks)
        parts = header.split(None, 1)
        seq_id = parts[0] if parts else ""
        description = parts[1] if len(parts) > 1 else ""
        if not text:
            warnings.warn(
                f"skipping FASTA record {seq_id or '<unnamed>'!r}: "
                "header with no sequence data",
                UserWarning,
                stacklevel=3,
            )
            return None
        return Sequence.from_text(
            seq_id, text, alphabet, description=description, strict=strict
        )

    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            if header is not None:
                record = flush(header)
                if record is not None:
                    yield record
            header = line[1:].strip()
            chunks = []
        else:
            if header is None:
                raise ValueError("FASTA data does not start with a '>' header")
            chunks.append(line)
    if header is not None:
        record = flush(header)
        if record is not None:
            yield record


def _open_binary(path: str | os.PathLike) -> BinaryIO:
    """Open ``path`` for binary reading, unwrapping gzip transparently.

    Compression is detected from the magic bytes, not the filename, so
    both ``db.fasta.gz`` and a compressed file without the suffix
    stream without a temporary decompressed copy.
    """
    fh = open(path, "rb")
    try:
        magic = fh.read(len(_GZIP_MAGIC))
        fh.seek(0)
    except BaseException:
        fh.close()
        raise
    if magic == _GZIP_MAGIC:
        return cast(BinaryIO, gzip.open(fh, "rb"))
    return fh


def _decode_lines(
    handle: Iterable[bytes], path: str | os.PathLike
) -> Iterator[str]:
    """Decode raw FASTA lines, tolerating non-ASCII bytes.

    Well-formed lines decode as ASCII.  A line with a byte outside
    ASCII — most often a curated header citing an author or organism —
    is decoded as latin-1 (every byte maps to a character, so nothing
    raises and nothing is dropped) with one :class:`UserWarning` per
    offending record naming it, instead of a ``UnicodeDecodeError``
    that kills a multi-hour scan at record three million.
    """
    record = "<before first record>"
    warned: set[str] = set()
    for raw in handle:
        try:
            line = raw.decode("ascii")
        except UnicodeDecodeError:
            line = raw.decode("latin-1")
            stripped = line.strip()
            name = (
                stripped[1:].split(None, 1)[0]
                if stripped.startswith(">") and len(stripped) > 1
                else record
            )
            if name not in warned:
                warned.add(name)
                warnings.warn(
                    f"non-ASCII bytes in FASTA record {name!r} of {path}; "
                    "decoded as latin-1",
                    UserWarning,
                    stacklevel=3,
                )
        stripped = line.strip()
        if stripped.startswith(">") and len(stripped) > 1:
            record = stripped[1:].split(None, 1)[0]
        yield line


def iter_fasta_file(
    path: str | os.PathLike,
    alphabet: Alphabet = PROTEIN,
    *,
    strict: bool = False,
) -> Iterator[Sequence]:
    """Stream :class:`Sequence` records from a FASTA file, one at a time.

    Unlike :func:`read_fasta_file` this never materializes the decoded
    file or the full record list: bytes stream through the gzip sniffer
    (:func:`_open_binary`) and the latin-1-hardened line decoder
    (:func:`_decode_lines`) record by record, so a multi-gigabyte
    database can be folded into an on-disk store
    (``repro db build``) with a peak working set of one record plus the
    consumer's accumulators — not the whole file.
    """
    with _open_binary(path) as fh:
        yield from read_fasta(_decode_lines(fh, path), alphabet,
                              strict=strict)


def read_fasta_file(
    path: str | os.PathLike,
    alphabet: Alphabet = PROTEIN,
    *,
    strict: bool = False,
) -> list[Sequence]:
    """Read a whole FASTA file into a list of sequences.

    Gzip-compressed files are detected by magic bytes and streamed
    transparently; non-ASCII header bytes decode leniently as latin-1
    with a warning naming the record (see :func:`_decode_lines`).
    Prefer :func:`iter_fasta_file` when the consumer can stream.
    """
    return list(iter_fasta_file(path, alphabet, strict=strict))


def write_fasta(
    sequences: Iterable[Sequence],
    handle: TextIO | str | os.PathLike,
    *,
    width: int = 60,
) -> None:
    """Write sequences in FASTA format.

    Parameters
    ----------
    sequences:
        Records to write.
    handle:
        Open text file or a path.
    width:
        Residues per line (must be positive).
    """
    if width <= 0:
        raise ValueError(f"line width must be positive, got {width}")

    own = False
    if isinstance(handle, (str, os.PathLike)):
        handle = open(handle, "w", encoding="ascii")
        own = True
    try:
        for seq in sequences:
            header = f">{seq.id}"
            if seq.description:
                header += f" {seq.description}"
            handle.write(header + "\n")
            text = seq.text
            for start in range(0, len(text), width):
                handle.write(text[start : start + width] + "\n")
    finally:
        if own:
            handle.close()
