"""Karlin-Altschul parameters of a scoring system.

For ungapped local alignment with substitution scores ``s(a, b)`` and
background frequencies ``p_a``, Karlin & Altschul (1990) showed the
optimal score follows an extreme-value distribution with

    E(S) = K * m * n * exp(-lambda * S)

where ``lambda`` is the unique positive root of

    sum_{a,b} p_a * p_b * exp(lambda * s(a, b)) = 1

(which exists iff the expected score is negative and a positive score is
possible), and ``K`` is a computable constant.  ``lambda`` is solved
exactly here (Brent's method on a bracketed, strictly increasing
function).  ``K``'s closed form involves an infinite series over lattice
sums; following common practice for gapped scoring systems — where no
closed form exists at all — ``K`` is *calibrated empirically*: optimal
scores of random sequence pairs are fitted to the EVD with ``lambda``
fixed, via the median of ``K = exp(lambda * S) * ln 2 / (m * n)``-style
estimators (see :func:`calibrate_k`).  The calibration is deterministic
given the RNG seed and is cached per scoring system.

The cache starts with one committed entry, the CLI's default scoring
system (BLOSUM62, Swiss-Prot frequencies, ``GapPenalty.cudasw_default()``,
seed 2011), so a cold ``repro search`` neither calibrates nor imports
``scipy``; a test recomputes that entry live and requires equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.alphabet import BLOSUM62, GapPenalty, SubstitutionMatrix
from repro.sequence.frequencies import SWISSPROT_AA_FREQUENCIES

__all__ = [
    "KarlinParameters",
    "karlin_lambda",
    "expected_score",
    "relative_entropy",
    "karlin_parameters",
    "calibrate_k",
]


def _clean_frequencies(
    matrix: SubstitutionMatrix, frequencies: np.ndarray
) -> np.ndarray:
    freq = np.asarray(frequencies, dtype=np.float64)
    if freq.shape != (matrix.alphabet.size,):
        raise ValueError(
            f"frequencies must have shape ({matrix.alphabet.size},), "
            f"got {freq.shape}"
        )
    if np.any(freq < 0) or freq.sum() <= 0:
        raise ValueError("frequencies must be non-negative and not all zero")
    return freq / freq.sum()


def expected_score(
    matrix: SubstitutionMatrix, frequencies: np.ndarray
) -> float:
    """Mean per-column score ``sum p_a p_b s(a,b)`` (must be < 0 for
    local-alignment statistics to exist)."""
    p = _clean_frequencies(matrix, frequencies)
    return float(p @ matrix.scores @ p)


def karlin_lambda(
    matrix: SubstitutionMatrix,
    frequencies: np.ndarray,
    *,
    tolerance: float = 1e-12,
) -> float:
    """The unique positive root of ``sum p_a p_b exp(lambda s_ab) = 1``.

    Raises ``ValueError`` when the scoring system is invalid for local
    alignment (non-negative expected score, or no positive score).
    """
    from scipy import optimize

    p = _clean_frequencies(matrix, frequencies)
    S = matrix.scores.astype(np.float64)
    mean = float(p @ S @ p)
    if mean >= 0:
        raise ValueError(
            f"expected score must be negative for local-alignment "
            f"statistics (got {mean:.4f})"
        )
    support = np.outer(p, p) > 0
    if not np.any(S[support] > 0):
        raise ValueError("a positive score must be possible")

    weights = np.outer(p, p)

    def f(lam: float) -> float:
        return float(np.sum(weights * np.exp(lam * S))) - 1.0

    # f(0) = 0, f'(0) = mean < 0, and f -> +inf: bracket the positive root.
    hi = 0.5
    while f(hi) < 0:
        hi *= 2.0
        if hi > 1e4:  # pragma: no cover - pathological matrices
            raise ValueError("failed to bracket lambda")
    return float(optimize.brentq(f, 1e-10, hi, xtol=tolerance))


def relative_entropy(
    matrix: SubstitutionMatrix, frequencies: np.ndarray, lam: float | None = None
) -> float:
    """The scoring system's relative entropy H (bits of information per
    aligned column under the target distribution)."""
    p = _clean_frequencies(matrix, frequencies)
    if lam is None:
        lam = karlin_lambda(matrix, frequencies)
    S = matrix.scores.astype(np.float64)
    target = np.outer(p, p) * np.exp(lam * S)
    return float(np.sum(target * S) * lam / math.log(2))


@dataclass(frozen=True)
class KarlinParameters:
    """The (lambda, K, H) triple of one scoring system."""

    lam: float
    k: float
    h: float
    gapped: bool

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.k <= 0 or self.h <= 0:
            raise ValueError("Karlin parameters must be positive")

    def bit_score(self, raw_score: float) -> float:
        """Normalized score in bits: ``(lambda S - ln K) / ln 2``."""
        return (self.lam * raw_score - math.log(self.k)) / math.log(2)

    def evalue(self, raw_score: float, m: int, n: int) -> float:
        """Expected number of chance hits at least this good in an
        ``m x n`` search space."""
        if m <= 0 or n <= 0:
            raise ValueError("search-space dimensions must be positive")
        return self.k * m * n * math.exp(-self.lam * raw_score)

    @staticmethod
    def pvalue_from_evalue(evalue: float) -> float:
        """P(at least one chance hit) = 1 - exp(-E)."""
        return -math.expm1(-evalue)


def calibrate_k(
    matrix: SubstitutionMatrix,
    frequencies: np.ndarray,
    lam: float,
    gaps: GapPenalty | None,
    rng: np.random.Generator,
    *,
    samples: int = 60,
    length: int = 180,
) -> float:
    """Empirical K: fit the EVD location from random-pair optimal scores.

    For an EVD, ``E[S] = (ln(K m n) + gamma) / lambda`` with Euler's
    ``gamma``; solving for K from the sample mean gives a consistent,
    simple estimator.  Gapped systems use the exact gapped optimum (our
    wavefront aligner); ungapped systems use the best ungapped segment.
    """
    if samples <= 1 or length <= 1:
        raise ValueError("need several samples of non-trivial length")
    p = _clean_frequencies(matrix, frequencies)
    scores = _calibration_scores(matrix, p, gaps, rng, samples, length)
    gamma = 0.5772156649015329
    mean = float(scores.mean())
    k = math.exp(lam * mean - gamma) / (length * length)
    # Clamp to the sane range of published K values.
    return float(min(max(k, 1e-6), 1.0))


def _calibration_scores(
    matrix: SubstitutionMatrix,
    p: np.ndarray,
    gaps: GapPenalty | None,
    rng: np.random.Generator,
    samples: int,
    length: int,
) -> np.ndarray:
    """Optimal scores of ``samples`` random ``length x length`` pairs.

    Residues are drawn from ``p`` in the order ``a_0, b_0, a_1, b_1,
    ...``: one ``choice`` call over the whole batch consumes the stream
    exactly as one call per sequence would.  Gapped systems score each
    pair with the wavefront aligner, ungapped ones with the best
    ungapped segment.
    """
    pairs = rng.choice(p.size, size=(samples, 2, length), p=p)
    pairs = pairs.astype(np.uint8)
    if gaps is None:
        scores = [_best_ungapped(matrix, a, b) for a, b in pairs]
    else:
        from repro.sw.antidiagonal import sw_score_antidiagonal

        scores = [sw_score_antidiagonal(a, b, matrix, gaps) for a, b in pairs]
    return np.array(scores, dtype=np.float64)


def _best_ungapped(
    matrix: SubstitutionMatrix, a: np.ndarray, b: np.ndarray
) -> int:
    """Best ungapped local segment score over all diagonals (vectorized
    Kadane per diagonal)."""
    best = 0
    n, m = a.size, b.size
    S = matrix.scores
    for diag in range(-(n - 1), m):
        if diag >= 0:
            length = min(n, m - diag)
            column = S[a[:length], b[diag : diag + length]]
        else:
            length = min(m, n + diag)
            column = S[a[-diag : -diag + length], b[:length]]
        running = 0
        for v in column:
            running = max(0, running + int(v))
            if running > best:
                best = running
    return best


def _cache_key(
    matrix: SubstitutionMatrix,
    p: np.ndarray,
    gaps: GapPenalty | None,
    seed: int,
) -> tuple:
    return (
        matrix.name,
        matrix.scores.tobytes(),
        p.tobytes(),
        None if gaps is None else (gaps.rho, gaps.sigma),
        seed,
    )


#: Computed parameters per scoring system.  Seeded with the CLI's
#: default system, which ``tests/stats/test_karlin.py`` recomputes live.
_CACHE: dict[tuple, KarlinParameters] = {
    _cache_key(
        BLOSUM62,
        _clean_frequencies(BLOSUM62, SWISSPROT_AA_FREQUENCIES),
        GapPenalty.cudasw_default(),
        2011,
    ): KarlinParameters(
        lam=0.3172224820044583,
        k=0.08440396230875856,
        h=0.5564469822578179,
        gapped=True,
    ),
}


def karlin_parameters(
    matrix: SubstitutionMatrix,
    frequencies: np.ndarray,
    gaps: GapPenalty | None = None,
    *,
    seed: int = 2011,
) -> KarlinParameters:
    """The (lambda, K, H) of a scoring system, with caching.

    ``gaps=None`` gives the ungapped statistics (exact lambda); with a
    gap model, ``lambda`` is scaled by the standard gapped correction
    fitted into the empirical calibration (the empirical scores already
    include gaps, so the EVD fit absorbs the difference).
    """
    p = _clean_frequencies(matrix, frequencies)
    key = _cache_key(matrix, p, gaps, seed)
    if key in _CACHE:
        return _CACHE[key]
    ungapped = karlin_lambda(matrix, frequencies)
    lam = ungapped
    if gaps is not None:
        # Gapped lambda is below the ungapped one; fit it from the
        # empirical score spread (EVD: stddev = pi / (sqrt(6) lambda)).
        rng = np.random.default_rng(seed)
        scores = _calibration_scores(matrix, p, gaps, rng, 60, 180)
        spread = float(scores.std(ddof=1))
        lam_gapped = math.pi / (math.sqrt(6.0) * max(spread, 1e-9))
        lam = min(lam, lam_gapped)
    rng = np.random.default_rng(seed + 1)
    k = calibrate_k(matrix, frequencies, lam, gaps, rng)
    h = relative_entropy(matrix, frequencies, ungapped)
    params = KarlinParameters(lam=lam, k=k, h=h, gapped=gaps is not None)
    _CACHE[key] = params
    return params
