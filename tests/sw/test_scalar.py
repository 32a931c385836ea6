"""Tests for the scalar reference Smith-Waterman against hand-computed cases."""

import numpy as np
import pytest

from repro.alphabet import BLOSUM62, DNA, GapPenalty, dna_matrix, identity_matrix
from repro.sw import sw_score_scalar, sw_tables_scalar

GP = GapPenalty.cudasw_default()


class TestHandComputed:
    def test_identical_sequences(self):
        # Perfect self-match: sum of diagonal scores.
        text = "MKVLAW"
        expected = sum(BLOSUM62.score(c, c) for c in text)
        assert sw_score_scalar(text, text, BLOSUM62, GP) == expected

    def test_single_symbol(self):
        assert sw_score_scalar("W", "W", BLOSUM62, GP) == 11
        # Negative substitution -> empty alignment is optimal.
        assert sw_score_scalar("W", "P", BLOSUM62, GP) == 0

    def test_no_positive_alignment(self):
        # All cross scores negative: score must be 0.
        assert sw_score_scalar("WWW", "PPP", BLOSUM62, GP) == 0

    def test_local_trims_negative_ends(self):
        # The W-run matches; flanking mismatching context must be dropped.
        core = "WWWW"
        q = "PPP" + core
        d = core + "GGG"
        assert sw_score_scalar(q, d, BLOSUM62, GP) == 4 * 11

    def test_simple_gap(self):
        # q = AAAA, d = AATAA.  Candidate alignments: a contiguous AA run
        # (2*2 = 4); bridging the T with a length-1 gap (4*2 - rho); or a
        # mismatch column over the T using only 4 query residues
        # (2+2-3+2 = 3).
        m = dna_matrix(match=2, mismatch=-3)
        gp = GapPenalty.from_open_extend(5, 2)  # rho = 7: bridge scores 1
        assert sw_score_scalar("AAAA", "AATAA", m, gp) == 4
        # With a cheap gap open the bridge wins: 8 - 2 = 6.
        gp2 = GapPenalty(rho=2, sigma=1)
        assert sw_score_scalar("AAAA", "AATAA", m, gp2) == 6

    def test_gap_extension_pricing(self):
        # AAAA vs AATTTAA, mismatch catastrophic: either bridge the 3 T's
        # with one gap of length 3 (8 - (7+2+2) = -3 -> prefer 2x2 match
        # run) or keep a 2-run.
        m = dna_matrix(match=2, mismatch=-100)
        gp = GapPenalty.from_open_extend(5, 2)
        assert sw_score_scalar("AAAA", "AATTTAA", m, gp) == 4
        # Cheap gaps: bridging wins: 8 - (3+1+1) = 3?  rho=4, sigma=1:
        # gap cost = 4 + 2*1 = 6 -> 8 - 6 = 2 < 4.  Even cheaper:
        gp2 = GapPenalty(rho=2, sigma=1)
        assert sw_score_scalar("AAAA", "AATTTAA", m, gp2) == 8 - (2 + 1 + 1)

    def test_known_small_table(self):
        # Worked example small enough to verify by hand:
        # q = "GG", d = "GAG", identity match 3 / mismatch -2, rho 3 sigma 1.
        mat = identity_matrix(DNA, match=3, mismatch=-2)
        gp = GapPenalty(rho=3, sigma=1)
        # Paths: GG vs GG (d[2:] or gap-bridged G-G vs GAG = 6-3 = 3) or
        # direct GG vs GA = 3-2 = 1; best = G-G vs GAG? cost 6 - 3 = 3;
        # also GG vs AG suffix = 3.  And single G = 3.  Bridge = 3.
        assert sw_score_scalar("GG", "GAG", mat, gp) == 3

    def test_asymmetric_pair_symmetry(self):
        q, d = "MKVLAWCRND", "KVAWRN"
        assert sw_score_scalar(q, d, BLOSUM62, GP) == sw_score_scalar(
            d, q, BLOSUM62, GP
        )


def _gotoh_python_ints(q, d, scores, rho, sigma):
    """Smith-Waterman with Gotoh gaps over plain Python ints, which
    cannot wrap: the reference for scores past any fixed width."""
    neg = float("-inf")
    h_up = [0] * (len(d) + 1)
    f_up = [neg] * (len(d) + 1)
    best = 0
    for a in q:
        h_row, f_row, e = [0], [neg], neg
        for j, b in enumerate(d, start=1):
            e = max(e - sigma, h_row[j - 1] - rho)
            f = max(f_up[j] - sigma, h_up[j] - rho)
            h = max(0, e, f, h_up[j - 1] + int(scores[a][b]))
            h_row.append(h)
            f_row.append(f)
            best = max(best, h)
        h_up, f_up = h_row, f_row
    return best


class TestTables:
    def test_boundaries(self):
        H, E, F = sw_tables_scalar("MK", "MKV", BLOSUM62, GP)
        assert H.shape == (3, 4)
        assert np.all(H[0] == 0) and np.all(H[:, 0] == 0)
        assert np.all(H >= 0)

    def test_tables_match_recurrence_spot(self):
        H, E, F = sw_tables_scalar("MM", "MM", BLOSUM62, GP)
        w = BLOSUM62.score("M", "M")
        assert H[1, 1] == w
        assert H[2, 2] == 2 * w

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sw_score_scalar("", "MK", BLOSUM62, GP)
        with pytest.raises(ValueError):
            sw_score_scalar("MK", "", BLOSUM62, GP)

    def test_huge_penalties_rejected(self):
        with pytest.raises(ValueError):
            sw_score_scalar("MK", "MK", BLOSUM62, GapPenalty(2**21, 2**20))

    def test_codes_input(self):
        from repro.alphabet import PROTEIN

        q = PROTEIN.encode("MKV")
        assert sw_score_scalar(q, "MKV", BLOSUM62, GP) == sw_score_scalar(
            "MKV", "MKV", BLOSUM62, GP
        )

    def test_scores_past_int32_are_exact(self):
        # Every protein symbol once, against itself and a shuffle, under
        # a random symmetric matrix of entries up to 2**30: the optimal
        # alignment sums many of them, far past int32's range.
        from repro.alphabet import PROTEIN, SubstitutionMatrix

        rng = np.random.default_rng(24)
        n = PROTEIN.size
        upper = np.triu(rng.integers(-(2**30), 2**30 + 1, size=(n, n)))
        matrix = SubstitutionMatrix(
            "near-2**30", PROTEIN, upper + np.triu(upper, 1).T
        )
        gaps = GapPenalty(rho=2**20, sigma=2**19)
        query = np.arange(n, dtype=np.uint8)
        scores = matrix.scores.tolist()
        for subject in (query, rng.permutation(query)):
            expected = _gotoh_python_ints(
                query.tolist(), subject.tolist(), scores, gaps.rho, gaps.sigma
            )
            assert expected > 2**31
            assert sw_score_scalar(query, subject, matrix, gaps) == expected
        H, E, F = sw_tables_scalar(query, query, matrix, gaps)
        assert H.dtype == E.dtype == F.dtype == np.int64

    def test_wrong_alphabet_sequence_rejected(self):
        from repro.sequence import Sequence

        s = Sequence.from_text("x", "ACGT", DNA)
        with pytest.raises(ValueError, match="alphabet"):
            sw_score_scalar(s, "MKV", BLOSUM62, GP)
