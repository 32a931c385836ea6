"""Tests for the group packer and its padding-waste accounting."""

import numpy as np
import pytest

from repro.engine import pack_database, pack_group
from repro.engine.pack import PackedGroup
from repro.sequence import Database, Sequence
from repro.sequence.database import SequenceGroup


@pytest.fixture()
def db():
    rng = np.random.default_rng(0)
    lengths = [30, 5, 12, 5, 44, 7, 19, 3]
    return Database.from_sequences(
        [Sequence.random(f"s{i}", n, rng) for i, n in enumerate(lengths)]
    )


class TestPackGroup:
    def test_rows_hold_codes_then_pad(self, db):
        packed = pack_group(db, np.array([1, 4, 7]))
        assert packed.codes.shape == (3, 44)
        assert packed.pad_code == db.alphabet.size
        for lane, src in enumerate([1, 4, 7]):
            n = int(db.lengths[src])
            assert np.array_equal(packed.codes[lane, :n], db.codes_of(src))
            assert np.all(packed.codes[lane, n:] == packed.pad_code)

    def test_padding_efficiency_matches_sequence_group(self, db):
        idx = np.array([0, 2, 6])
        packed = pack_group(db, idx)
        group = SequenceGroup(idx, db.lengths[idx])
        assert packed.padding_efficiency == pytest.approx(
            group.load_balance_efficiency
        )
        assert packed.residues == group.total_residues
        assert packed.padded_cells == packed.size * packed.max_length

    def test_codes_are_read_only(self, db):
        packed = pack_group(db, np.array([0, 1]))
        with pytest.raises(ValueError):
            packed.codes[0, 0] = 1

    def test_rejects_empty_selection(self, db):
        with pytest.raises(ValueError):
            pack_group(db, np.array([], dtype=np.int64))

    def test_rejects_lengths_only_database(self):
        lengths_only = Database.from_lengths([10, 20, 30])
        with pytest.raises(ValueError, match="lengths-only"):
            pack_group(lengths_only, np.array([0, 1]))

    def test_validation_of_inconsistent_fields(self, db):
        packed = pack_group(db, np.array([0, 1]))
        with pytest.raises(ValueError):
            PackedGroup(
                packed.indices[:1], packed.lengths, packed.codes,
                packed.pad_code,
            )
        with pytest.raises(ValueError):
            PackedGroup(
                packed.indices, packed.lengths, packed.codes[:, :-1],
                packed.pad_code,
            )

    def test_rejects_codes_past_the_pad_code(self, db):
        # The lane kernels gather with mode="clip": an out-of-range code
        # must be refused here, not silently scored as padding.
        packed = pack_group(db, np.array([0, 1]))
        codes = packed.codes.copy()
        codes[0, 0] = packed.pad_code + 1
        with pytest.raises(ValueError, match="pad code"):
            PackedGroup(
                packed.indices, packed.lengths, codes, packed.pad_code
            )


class TestPackDatabase:
    def test_groups_are_length_sorted(self, db):
        groups = pack_database(db, group_size=3)
        assert [g.size for g in groups] == [3, 3, 2]
        flat = np.concatenate([g.lengths for g in groups])
        assert np.array_equal(flat, np.sort(db.lengths, kind="stable"))

    def test_indices_cover_database_exactly_once(self, db):
        groups = pack_database(db, group_size=3)
        flat = np.concatenate([g.indices for g in groups])
        assert np.array_equal(np.sort(flat), np.arange(len(db)))

    def test_sorting_tightens_padding(self, db):
        """Length sorting is the whole point: packed rectangles must not
        be looser than the unsorted-order packing."""
        sorted_eff = _aggregate_eff(pack_database(db, 4))
        unsorted_groups = [
            pack_group(db, np.arange(0, 4)),
            pack_group(db, np.arange(4, 8)),
        ]
        assert sorted_eff >= _aggregate_eff(unsorted_groups)

    def test_group_size_validation(self, db):
        with pytest.raises(ValueError):
            pack_database(db, 0)


def _aggregate_eff(groups):
    return sum(g.residues for g in groups) / sum(
        g.padded_cells for g in groups
    )
