"""Randomized equivalence: batched engine scores == scalar reference.

The batched lanes engine must be *bit-identical* to
:func:`repro.sw.scalar.sw_score_scalar` on every pair — across gap
penalty configurations, substitution matrices of different score ranges
(BLOSUM62 plus BLOSUM45/80-style matrices derived with the repository's
own Henikoff builder at clustering thresholds 0.45/0.80 — this offline
environment ships no unverifiable matrix constants), degenerate
length-1 sequences, maximally ragged groups, and groups smaller than
the configured group size.
"""

import numpy as np
import pytest

from repro.alphabet import BLOSUM62, GapPenalty, build_blosum
from repro.engine import (
    BatchedEngine,
    SearchConfig,
    pack_database,
    pack_group,
    run_groups,
)
from repro.sequence import Database, QueryProfile, Sequence, random_protein
from repro.sw import sw_score_scalar

GAP_CONFIGS = (
    GapPenalty.cudasw_default(),            # open 10 extend 2 (rho 12)
    GapPenalty.from_open_extend(10, 1),     # rho 11, sigma 1
    GapPenalty(rho=5, sigma=5),             # linear gaps (rho == sigma)
    GapPenalty(rho=20, sigma=1),            # expensive open, cheap extend
)


def _blocks_from_blosum62_target(rng, n_blocks=150, depth=6, width=30):
    """Alignment blocks sampled under BLOSUM62's implied pair
    distribution (as the blosum_builder tests do)."""
    from repro.sequence.frequencies import SWISSPROT_AA_FREQUENCIES

    p = SWISSPROT_AA_FREQUENCIES.copy()
    target = np.outer(p, p) * np.exp(0.3466 * BLOSUM62.scores.astype(float))
    target /= target.sum()
    size = BLOSUM62.alphabet.size
    pairs = rng.choice(size * size, p=target.ravel(), size=(n_blocks, width))
    blocks = []
    half = depth // 2
    for bi in range(n_blocks):
        a, b = np.divmod(pairs[bi], size)
        block = np.empty((depth, width), dtype=np.uint8)
        block[:half, :] = a
        block[half:, :] = b
        blocks.append(block)
    return blocks


@pytest.fixture(scope="module")
def matrices():
    """BLOSUM62 plus derived 45-style and 80-style matrices."""
    rng = np.random.default_rng(62)
    blocks = _blocks_from_blosum62_target(rng)
    return (
        BLOSUM62,
        build_blosum(blocks, threshold=0.45, name="blosum45-style"),
        build_blosum(blocks, threshold=0.80, name="blosum80-style"),
    )


@pytest.fixture(scope="module")
def ragged_db():
    """Ragged lengths including several length-1 sequences."""
    rng = np.random.default_rng(3)
    lengths = [1, 1, 2, 3, 60, 5, 44, 1, 17, 9, 31, 58, 4, 23]
    seqs = [Sequence.random(f"s{i}", n, rng) for i, n in enumerate(lengths)]
    return Database.from_sequences(seqs)


def _reference(query, db, matrix, gaps):
    return np.array(
        [
            sw_score_scalar(query.codes, db.codes_of(i), matrix, gaps)
            for i in range(len(db))
        ],
        dtype=np.int64,
    )


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("gaps", GAP_CONFIGS, ids=lambda g: f"{g.rho}-{g.sigma}")
    @pytest.mark.parametrize("mat_index", (0, 1, 2), ids=("b62", "b45", "b80"))
    def test_matches_scalar(self, matrices, ragged_db, mat_index, gaps):
        matrix = matrices[mat_index]
        rng = np.random.default_rng(100 * mat_index + gaps.rho)
        engine = BatchedEngine(matrix, gaps, SearchConfig(group_size=5))
        for m in (1, 23):
            query = random_protein(m, rng, id="q")
            scores, report = engine.search(query, ragged_db)
            assert np.array_equal(
                scores, _reference(query, ragged_db, matrix, gaps)
            )
            # group_size 5 over 14 sequences: ragged groups + a short tail.
            assert report.group_sizes == (5, 5, 4)

    def test_derived_matrices_are_not_blosum62(self, matrices):
        """The 45/80-style matrices must genuinely vary the score range."""
        b62, b45, b80 = matrices
        assert not np.array_equal(b45.scores, b62.scores)
        assert not np.array_equal(b80.scores, b62.scores)
        assert not np.array_equal(b45.scores, b80.scores)


class TestEdgeShapes:
    def test_all_length_one(self):
        rng = np.random.default_rng(4)
        db = Database.from_sequences(
            [Sequence.random(f"s{i}", 1, rng) for i in range(7)]
        )
        gaps = GapPenalty.cudasw_default()
        engine = BatchedEngine(BLOSUM62, gaps, SearchConfig(group_size=3))
        for m in (1, 12):
            q = random_protein(m, rng, id="q")
            scores, _ = engine.search(q, db)
            assert np.array_equal(scores, _reference(q, db, BLOSUM62, gaps))

    def test_maximally_ragged_group(self):
        """One long lane among length-1 lanes: padding must never leak
        into any lane's score, whether the lanes share one 15%-efficient
        rectangle or a cut at the 1-vs-120 gap packs them as two dense
        groups."""
        rng = np.random.default_rng(5)
        db = Database.from_sequences(
            [Sequence.random("long", 120, rng)]
            + [Sequence.random(f"tiny{i}", 1, rng) for i in range(6)]
        )
        gaps = GapPenalty.cudasw_default()
        engine = BatchedEngine(BLOSUM62, gaps, SearchConfig(group_size=7))
        q = random_protein(30, rng, id="q")
        scores, report = engine.search(q, db)
        reference = _reference(q, db, BLOSUM62, gaps)
        assert np.array_equal(scores, reference)
        # The engine keeps one rectangle: a second group's per-row cost
        # outweighs sweeping the padding.
        assert report.group_sizes == (7,)
        (whole,) = pack_database(db, 7)
        assert whole.padding_efficiency == 126 / 840
        order = np.argsort(db.lengths, kind="stable")
        dense = [pack_group(db, order[:6]), pack_group(db, order[6:])]
        assert [g.size for g in dense] == [6, 1]
        assert [g.padding_efficiency for g in dense] == [1.0, 1.0]
        groups = [whole, *dense]
        profile = QueryProfile(q.codes, BLOSUM62)
        for group, lane_scores in zip(
            groups, run_groups(profile, groups, gaps)
        ):
            assert np.array_equal(lane_scores, reference[group.indices])

    def test_group_smaller_than_group_size(self):
        rng = np.random.default_rng(6)
        db = Database.from_sequences(
            [Sequence.random(f"s{i}", int(n), rng)
             for i, n in enumerate([8, 20, 33])]
        )
        gaps = GapPenalty.cudasw_default()
        engine = BatchedEngine(BLOSUM62, gaps, SearchConfig(group_size=64))
        q = random_protein(15, rng, id="q")
        scores, report = engine.search(q, db)
        assert np.array_equal(scores, _reference(q, db, BLOSUM62, gaps))
        assert report.n_groups == 1
        assert report.group_sizes == (3,)

    def test_adversarial_penalties_use_wide_dtype(self):
        """Penalties at the validation cap exercise the int64 path."""
        rng = np.random.default_rng(7)
        db = Database.from_sequences(
            [Sequence.random(f"s{i}", int(n), rng)
             for i, n in enumerate([1, 9, 25])]
        )
        gaps = GapPenalty(rho=2**20, sigma=2**20)
        engine = BatchedEngine(BLOSUM62, gaps, SearchConfig(group_size=2))
        q = random_protein(11, rng, id="q")
        scores, _ = engine.search(q, db)
        assert np.array_equal(scores, _reference(q, db, BLOSUM62, gaps))

    def test_scores_return_in_database_order(self):
        """Length sorting inside the engine must not leak into the output
        order: a descending-length database still gets scores aligned
        with its own indexing."""
        rng = np.random.default_rng(8)
        db = Database.from_sequences(
            [Sequence.random(f"s{i}", n, rng)
             for i, n in enumerate([90, 70, 50, 30, 10])]
        )
        gaps = GapPenalty.cudasw_default()
        q = random_protein(25, rng, id="q")
        scores, _ = BatchedEngine(BLOSUM62, gaps, SearchConfig(group_size=2)).search(q, db)
        assert np.array_equal(scores, _reference(q, db, BLOSUM62, gaps))
