"""Textbook scalar Smith-Waterman (eq. 1 of the paper).

This is the slowest and most obviously-correct implementation in the
repository; every other aligner is tested against it.  Tables are
1-indexed: ``H[i][j]`` scores prefixes ``q[:i]`` / ``d[:j]``.
"""

from __future__ import annotations

import numpy as np

from repro.alphabet import GapPenalty, SubstitutionMatrix
from repro.sw.utils import NEG_INF, as_codes, check_nonempty, validate_penalties

__all__ = ["sw_score_scalar", "sw_tables_scalar"]


def sw_tables_scalar(
    query,
    database,
    matrix: SubstitutionMatrix,
    gaps: GapPenalty,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fill and return the full ``(m+1, n+1)`` H, E, F tables.

    The recurrences follow the paper exactly::

        E[i,j] = max(E[i,j-1] - sigma, H[i,j-1] - rho)
        F[i,j] = max(F[i-1,j] - sigma, H[i-1,j] - rho)
        H[i,j] = max(0, E[i,j], F[i,j], H[i-1,j-1] + w(q_i, d_j))

    with zero boundaries for H and ``-inf`` boundaries for E and F.
    The tables are int64: a local score past ``2**31`` stays exact, and
    ``NEG_INF`` minus any validated penalty cannot wrap.  Intended for
    tests and traceback on small inputs — O(mn) memory.
    """
    q = as_codes(query, matrix)
    d = as_codes(database, matrix)
    check_nonempty(q, d)
    validate_penalties(gaps)
    m, n = q.size, d.size
    rho, sigma = gaps.rho, gaps.sigma
    W = matrix.scores

    H = np.zeros((m + 1, n + 1), dtype=np.int64)
    E = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)
    F = np.full((m + 1, n + 1), NEG_INF, dtype=np.int64)

    for i in range(1, m + 1):
        qi = q[i - 1]
        for j in range(1, n + 1):
            e = max(E[i, j - 1] - sigma, H[i, j - 1] - rho)
            f = max(F[i - 1, j] - sigma, H[i - 1, j] - rho)
            h = max(0, e, f, H[i - 1, j - 1] + W[qi, d[j - 1]])
            E[i, j] = e
            F[i, j] = f
            H[i, j] = h
    return H, E, F


def sw_score_scalar(
    query,
    database,
    matrix: SubstitutionMatrix,
    gaps: GapPenalty,
) -> int:
    """Optimal local alignment score via the full-table scalar DP."""
    H, _, _ = sw_tables_scalar(query, database, matrix, gaps)
    return int(H.max())
