"""Tests for Karlin-Altschul statistics."""

import math

import numpy as np
import pytest

from repro.alphabet import BLOSUM62, DNA, GapPenalty, dna_matrix, identity_matrix
from repro.sequence.frequencies import SWISSPROT_AA_FREQUENCIES as FREQ
from repro.stats import (
    KarlinParameters,
    expected_score,
    karlin,
    karlin_lambda,
    karlin_parameters,
    relative_entropy,
)


class TestLambda:
    def test_blosum62_matches_published_value(self):
        """NCBI's ungapped lambda for BLOSUM62 is ~0.3176; with Swiss-Prot
        background frequencies we must land within a percent."""
        lam = karlin_lambda(BLOSUM62, FREQ)
        assert lam == pytest.approx(0.3176, abs=0.005)

    def test_root_property(self):
        """lambda satisfies its defining equation exactly."""
        lam = karlin_lambda(BLOSUM62, FREQ)
        p = FREQ / FREQ.sum()
        total = float(
            np.sum(np.outer(p, p) * np.exp(lam * BLOSUM62.scores.astype(float)))
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_expected_score_negative(self):
        assert expected_score(BLOSUM62, FREQ) < 0

    def test_dna_matrix(self):
        freq = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
        lam = karlin_lambda(dna_matrix(2, -3), freq)
        # BLASTN's +2/-3 ungapped lambda is ~0.625.
        assert lam == pytest.approx(0.625, abs=0.02)

    def test_positive_expected_score_rejected(self):
        # An all-positive matrix has no local-alignment statistics.
        m = identity_matrix(DNA, match=2, mismatch=1)
        freq = np.ones(DNA.size)
        with pytest.raises(ValueError, match="negative"):
            karlin_lambda(m, freq)

    def test_no_positive_score_rejected(self):
        m = identity_matrix(DNA, match=-1, mismatch=-2)
        freq = np.ones(DNA.size)
        with pytest.raises(ValueError, match="positive"):
            karlin_lambda(m, freq)

    def test_frequency_validation(self):
        with pytest.raises(ValueError):
            karlin_lambda(BLOSUM62, np.ones(3))
        with pytest.raises(ValueError):
            karlin_lambda(BLOSUM62, np.zeros(BLOSUM62.alphabet.size))

    def test_harsher_mismatches_raise_lambda(self):
        """More stringent scoring concentrates the score distribution."""
        freq = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
        soft = karlin_lambda(dna_matrix(1, -1), freq)
        hard = karlin_lambda(dna_matrix(1, -3), freq)
        assert hard > soft


class TestEntropyAndParameters:
    def test_relative_entropy_positive(self):
        h = relative_entropy(BLOSUM62, FREQ)
        assert 0.2 < h < 1.5  # bits per aligned column, sane range

    def test_parameters_cached(self):
        a = karlin_parameters(BLOSUM62, FREQ)
        b = karlin_parameters(BLOSUM62, FREQ)
        assert a is b

    def test_gapped_lambda_not_above_ungapped(self):
        ungapped = karlin_parameters(BLOSUM62, FREQ)
        gapped = karlin_parameters(BLOSUM62, FREQ, GapPenalty.cudasw_default())
        assert gapped.lam <= ungapped.lam

    def test_k_in_sane_range(self):
        p = karlin_parameters(BLOSUM62, FREQ)
        assert 1e-4 < p.k < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            KarlinParameters(lam=0.0, k=0.1, h=0.5, gapped=False)


class TestCalibrationPins:
    """The committed entry and the live calibration agree to the last
    bit, and other systems keep their pinned parameters."""

    @pytest.fixture
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(karlin, "_CACHE", {})

    def test_default_system_is_a_committed_entry(self):
        gaps = GapPenalty.cudasw_default()
        assert GapPenalty.from_open_extend(10, 2) == gaps  # the CLI default
        key = karlin._cache_key(BLOSUM62, FREQ / FREQ.sum(), gaps, 2011)
        assert karlin_parameters(BLOSUM62, FREQ, gaps) is karlin._CACHE[key]

    def test_live_recompute_equals_committed_entry(self, monkeypatch):
        gaps = GapPenalty.cudasw_default()
        committed = karlin_parameters(BLOSUM62, FREQ, gaps)
        monkeypatch.setattr(karlin, "_CACHE", {})
        live = karlin_parameters(BLOSUM62, FREQ, gaps)
        assert live is not committed
        assert (live.lam, live.k, live.h, live.gapped) == (
            committed.lam, committed.k, committed.h, committed.gapped
        )

    @pytest.mark.parametrize(
        "gaps, lam, k, h",
        [
            (GapPenalty.from_open_extend(11, 1), 0.3172224820044583,
             0.08851727401581676, 0.5564469822578179),
            (None, 0.3172224820044583, 0.07513597238394147,
             0.5564469822578179),
        ],
        ids=["open11-extend1", "ungapped"],
    )
    def test_non_default_systems_pinned(self, empty_cache, gaps, lam, k, h):
        params = karlin_parameters(BLOSUM62, FREQ, gaps)
        assert (params.lam, params.k, params.h) == (lam, k, h)
        assert params.gapped is (gaps is not None)


class TestScores:
    @pytest.fixture(scope="class")
    def params(self):
        return karlin_parameters(BLOSUM62, FREQ)

    def test_bit_score_linear_in_raw(self, params):
        b1 = params.bit_score(50)
        b2 = params.bit_score(100)
        assert b2 > b1
        slope = (b2 - b1) / 50
        assert slope == pytest.approx(params.lam / math.log(2))

    def test_evalue_monotone_decreasing(self, params):
        evs = [params.evalue(s, 500, 10**8) for s in (30, 60, 90, 120)]
        assert evs == sorted(evs, reverse=True)
        assert evs[-1] < 1.0 < evs[0]

    def test_evalue_scales_with_search_space(self, params):
        small = params.evalue(80, 500, 10**6)
        big = params.evalue(80, 500, 10**8)
        assert big == pytest.approx(100 * small)

    def test_pvalue_bounds(self, params):
        for e in (1e-10, 0.1, 5.0, 100.0):
            p = params.pvalue_from_evalue(e)
            assert 0 <= p <= 1
        assert params.pvalue_from_evalue(1e-9) == pytest.approx(1e-9, rel=1e-3)

    def test_evalue_validation(self, params):
        with pytest.raises(ValueError):
            params.evalue(10, 0, 100)


class TestEmpiricalAgreement:
    def test_random_scores_follow_predicted_scale(self):
        """Optimal scores of random pairs grow like ln(mn)/lambda, and the
        predicted E-value at the observed mean score is O(1)."""
        from repro.sw import sw_score_antidiagonal

        rng = np.random.default_rng(0)
        gaps = GapPenalty.cudasw_default()
        params = karlin_parameters(BLOSUM62, FREQ, gaps)
        length = 150
        p = FREQ / FREQ.sum()
        scores = []
        for _ in range(30):
            a = rng.choice(24, size=length, p=p).astype(np.uint8)
            b = rng.choice(24, size=length, p=p).astype(np.uint8)
            scores.append(sw_score_antidiagonal(a, b, BLOSUM62, gaps))
        mean = float(np.mean(scores))
        e_at_mean = params.evalue(mean, length, length)
        # At the distribution's center the expected count of equal-or-
        # better chance hits in one pair is around one (EVD: e^gamma/e ~
        # 0.56..1.8 given estimator noise).
        assert 0.05 < e_at_mean < 20.0
