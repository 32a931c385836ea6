"""Score-dtype stability: results past the int16 range stay exact.

The paper's kernels keep scores in registers wide enough for the worst
case; a narrow accumulator silently wraps on long high-identity
alignments.  These tests pin the batched engine's dtype policy
(`_working_dtype`) and prove, end to end, that a score which cannot fit
in int16 comes back exact — both against the closed-form perfect-match
score and against the independent antidiagonal aligner.
"""

import numpy as np
import pytest

from repro.alphabet import BLOSUM62, GapPenalty
from repro.engine import BatchedEngine, SearchConfig
from repro.engine.lanes import _working_dtype
from repro.sequence import Database, Sequence
from repro.sw.antidiagonal import sw_score_antidiagonal

GP = GapPenalty.cudasw_default()

#: BLOSUM62 W/W similarity — the matrix's largest diagonal entry.
W_SELF = 11

INT16_MAX = 2**15 - 1


class TestWorkingDtype:
    def test_overflowing_int16_geometry_selects_int32(self):
        # 3200 residues of W against itself: true score 35200 > int16.
        dtype = _working_dtype(3200, 3200, W_SELF, GP)
        assert dtype is np.int32

    def test_adversarial_penalties_select_int64(self):
        # Penalties near the validation cap blow the int32 bound.
        huge = GapPenalty(rho=2**20, sigma=2**20)
        assert _working_dtype(3200, 3200, W_SELF, huge) is np.int64


class TestOverflowEquivalence:
    @pytest.fixture(scope="class")
    def poly_w(self):
        # Long perfect self-match whose score provably exceeds int16:
        # 3200 * 11 = 35200.
        return "W" * 3200

    def test_score_exceeds_int16_and_matches_closed_form(self, poly_w):
        query = Sequence.from_text("q", poly_w)
        db = Database.from_sequences([Sequence.from_text("d", poly_w)])
        engine = BatchedEngine(BLOSUM62, GP)
        scores, _ = engine.search(query, db)
        expected = len(poly_w) * W_SELF
        assert expected > INT16_MAX  # the test is vacuous otherwise
        assert scores.dtype == np.int64
        assert int(scores[0]) == expected

    def test_matches_antidiagonal_aligner_past_int16(self, poly_w):
        # Independent implementation, same pair: any wraparound in the
        # sweep's working buffers would break this equality.
        query = Sequence.from_text("q", poly_w)
        dseq = Sequence.from_text("d", poly_w)
        db = Database.from_sequences([dseq])
        engine = BatchedEngine(BLOSUM62, GP)
        scores, _ = engine.search(query, db)
        reference = sw_score_antidiagonal(query, dseq, BLOSUM62, GP)
        assert reference > INT16_MAX
        assert int(scores[0]) == reference

    def test_mixed_group_keeps_short_lanes_exact(self, poly_w):
        # The overflowing lane shares a group with ordinary sequences;
        # widening must not disturb their scores.
        rng = np.random.default_rng(7)
        query = Sequence.from_text("q", poly_w)
        short = Sequence.random("s", 40, rng)
        db = Database.from_sequences(
            [Sequence.from_text("d", poly_w), short]
        )
        engine = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=2))
        scores, _ = engine.search(query, db)
        assert int(scores[0]) == len(poly_w) * W_SELF
        assert int(scores[1]) == sw_score_antidiagonal(
            query, short, BLOSUM62, GP
        )
