"""Real-world FASTA hardening: non-ASCII headers and gzip streams."""

import gzip

import pytest

from repro.sequence import read_fasta, read_fasta_file, write_fasta
from repro.sequence.sequence import Sequence


class TestLenientHeaders:
    def test_non_ascii_header_decodes_latin1_with_warning(self, tmp_path):
        path = tmp_path / "curated.fasta"
        path.write_bytes(
            b">sp|P1|caf\xe9 organism=\xe9toile\nACDEF\n>plain ok\nGHIKL\n"
        )
        with pytest.warns(UserWarning, match="sp\\|P1\\|caf"):
            records = read_fasta_file(path)
        assert [r.id for r in records] == ["sp|P1|café", "plain"]
        assert [r.text for r in records] == ["ACDEF", "GHIKL"]

    def test_warning_names_the_offending_record_once(self, tmp_path):
        path = tmp_path / "multi.fasta"
        # Two bad lines in ONE record (header + description overflow
        # onto a continuation is impossible in FASTA, so use two bad
        # records) -> one warning each, naming each record.
        path.write_bytes(b">a\xff first\nACD\n>b\xfe second\nEFG\n")
        with pytest.warns(UserWarning) as caught:
            records = read_fasta_file(path)
        assert len(records) == 2
        names = sorted(str(w.message) for w in caught
                       if "non-ASCII" in str(w.message))
        assert len(names) == 2
        assert "'aÿ'" in names[0] and "'bþ'" in names[1]

    def test_ascii_file_warns_nothing(self, tmp_path, recwarn):
        path = tmp_path / "clean.fasta"
        write_fasta([Sequence.from_text("q", "ACDEFG")], path)
        records = read_fasta_file(path)
        assert records[0].text == "ACDEFG"
        assert not [w for w in recwarn if "non-ASCII" in str(w.message)]


class TestGzipSupport:
    def test_gz_file_streams_transparently(self, tmp_path):
        path = tmp_path / "db.fasta.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(">a desc one\nACDE\nFGHI\n>b\nKLMN\n")
        records = read_fasta_file(path)
        assert [(r.id, r.text) for r in records] == [
            ("a", "ACDEFGHI"), ("b", "KLMN"),
        ]
        assert records[0].description == "desc one"

    def test_gzip_detected_by_magic_not_extension(self, tmp_path):
        path = tmp_path / "renamed.fasta"  # compressed, misleading name
        with gzip.open(path, "wt") as fh:
            fh.write(">x\nMNPQ\n")
        records = read_fasta_file(path)
        assert records[0].id == "x" and records[0].text == "MNPQ"

    def test_gzipped_non_ascii_header_still_warns(self, tmp_path):
        path = tmp_path / "both.fasta.gz"
        with gzip.open(path, "wb") as fh:
            fh.write(b">caf\xe9\nACDE\n")
        with pytest.warns(UserWarning, match="non-ASCII"):
            records = read_fasta_file(path)
        assert records[0].id == "café"

    def test_roundtrip_through_gzip_matches_plain(self, tmp_path):
        seqs = [Sequence.from_text(f"s{i}", "ACDEFGHIKLMNPQ"[: 5 + i])
                for i in range(4)]
        plain = tmp_path / "plain.fasta"
        write_fasta(seqs, plain)
        gz = tmp_path / "same.fasta.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        assert [(r.id, r.text) for r in read_fasta_file(gz)] == [
            (r.id, r.text) for r in read_fasta_file(plain)
        ]


class TestHeaderState:
    def test_residues_before_any_header_raise(self):
        with pytest.raises(ValueError, match="does not start with"):
            list(read_fasta("ACDE\n>s1\nACDE\n"))

    def test_every_record_keeps_its_own_header(self):
        records = list(read_fasta(">s1 first\nACDE\n>s2 second\nKL\n"))
        assert [(r.id, r.description) for r in records] == [
            ("s1", "first"), ("s2", "second")
        ]
