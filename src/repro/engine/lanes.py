"""The batched lane sweep: one NumPy step per DP row, all lanes at once.

This is inter-sequence SIMD vectorization (SWIPE, SWAPHI, the SSW
library) expressed in NumPy: lane ``k`` of a :class:`PackedGroup` holds
database sequence ``k``, and each iteration of the single Python loop
advances *every* lane by one query row.  For a group of ``s`` sequences
of padded length ``L`` against a query of length ``m``, the whole group
costs ``m`` vectorized steps over ``(s, L)`` arrays — versus
``s * (m + n)`` interpreter steps for the per-pair wavefront aligner.

Within a row the horizontal gap state ``E`` has a sequential dependency
(``E[i][j]`` needs ``E[i][j-1]``), which would force a per-column Python
loop.  The sweep removes it with the Gotoh scan identity: because a gap
*extension* never costs more than a gap *open* (``sigma <= rho``, which
:class:`~repro.alphabet.gaps.GapPenalty` enforces), ``E`` can be opened
directly from ``Htmp = max(0, F, H_diag + W)`` — the row's H values
*before* E is folded in::

    E[i][j] = max_{k < j} ( Htmp[k] - rho - (j-1-k) * sigma )
            = max_{k <= j-1} ( Htmp[k] + k*sigma ) - rho - (j-1)*sigma

i.e. a prefix maximum of ``Htmp + k*sigma`` along the row, computed for
all lanes with one ``np.maximum.accumulate``.  (Routing a gap through a
cell whose H came from E would pay ``rho`` twice where extending the
original gap pays ``sigma`` — never better when ``sigma <= rho``.)

Padded columns read a sentinel similarity of ``-(m * |W|_max + 1)``, so
``H_diag + W`` is negative there; padded cells can only relay (decayed)
in-bounds values and never raise a lane's maximum.  Scores are therefore
bit-identical to :func:`~repro.sw.scalar.sw_score_scalar` on every lane,
which the equivalence suite asserts.
"""

from __future__ import annotations

import numpy as np

from repro.alphabet import GapPenalty
from repro.engine.pack import PackedGroup
from repro.obs import AnyInstrumentation, current as obs_current
from repro.sequence.profile import QueryProfile
from repro.sw.utils import validate_penalties

__all__ = ["score_packed_group", "padded_lane_profile", "count_sweep_work"]


def count_sweep_work(
    instr: AnyInstrumentation, m: int, group: PackedGroup
) -> None:
    """Record one group sweep's work in the ambient counter registry.

    Useful vs. padded cells is the Figure 2 distinction: the sweep
    *computes* the whole ``(size, max_len)`` rectangle ``m`` times, but
    only ``m * residues`` of those cells are real DP cells.  Groups
    scored in pool workers charge these counts worker-side, and each
    accepted chunk ships its registry back as telemetry that the parent
    merges once (see ``repro.engine.executor``), so totals are identical
    on the serial and fanned-out paths.
    """
    s, L = group.codes.shape
    instr.count("engine.sweep.groups", 1)
    instr.count("engine.sweep.rows", m)
    instr.count("engine.sweep.lane_steps", m * s)
    instr.count("engine.sweep.useful_cells", m * group.residues)
    instr.count("engine.sweep.padded_cells", m * s * L)


def padded_lane_profile(profile: QueryProfile, pad_code: int) -> np.ndarray:
    """Row-per-query-position profile with a pad-sentinel column.

    Returns ``(m, alphabet_size + 1)`` where ``[i, c] = W[q_i, c]`` and
    the extra column ``[i, pad_code]`` holds a similarity poisonous
    enough that no alignment through padding can ever score positively.
    Row ``i`` is contiguous: scoring query row ``i`` against every lane
    is one ``np.take`` gather from it.
    """
    size = profile.matrix.alphabet.size
    if pad_code != size:
        raise ValueError(
            f"pad code must be the alphabet-size sentinel {size}, "
            f"got {pad_code}"
        )
    scores = profile.scores  # (size, m), row-contiguous per symbol
    max_abs = max(int(np.abs(scores).max()), 1)
    pad_score = -(profile.length * max_abs + 1)
    out = np.empty((profile.length, size + 1), dtype=np.int64)
    out[:, :size] = scores.T
    out[:, size] = pad_score
    return out


def _working_dtype(
    m: int, L: int, max_abs_score: int, gaps: GapPenalty
) -> type:
    """The narrowest of int16, int32 and int64 every intermediate fits.

    The extreme magnitudes are the prefix-scan ramp (``L * sigma``), the
    decayed F boundary (``~m * sigma + rho`` below the -inf seed) and
    accumulated similarity (``m * |W|_max``); ``bound`` below covers
    their sum.  One ladder, three rungs; the two narrow ones keep
    ``bound`` below half their dtype's range:

    * **int16** when ``bound < 2**14``: short queries and subjects under
      ordinary matrices and penalties — the bulk of a protein search.
      Half the bytes of int32 per cell, so every elementwise pass and
      the similarity gather move half the memory.
    * **int32** when ``bound < 2**30``: every realistic matrix/penalty
      at any length the search takes.
    * **int64** otherwise: the safety net for adversarial penalties
      near the ``2**20`` validation cap.
    """
    bound = (
        2 * m * max_abs_score
        + gaps.rho
        + gaps.sigma * (L + 2 * m + 4)
    )
    if bound < 2**14:
        return np.int16
    return np.int32 if bound < 2**30 else np.int64


def score_packed_group(
    profile: QueryProfile, group: PackedGroup, gaps: GapPenalty
) -> np.ndarray:
    """Optimal local-alignment score of the query against every lane.

    Returns an ``int64`` array of ``group.size`` scores, lane order.
    """
    validate_penalties(gaps)
    m = profile.length
    s, L = group.codes.shape
    rho, sigma = gaps.rho, gaps.sigma
    max_abs = int(np.abs(profile.scores).max())
    dtype = _working_dtype(m, L, max_abs, gaps)
    instr = obs_current()
    if instr.enabled:
        count_sweep_work(instr, m, group)
        if dtype is np.int16:
            instr.count("engine.sweep.int16_groups", 1)
    pp = padded_lane_profile(profile, group.pad_code).astype(
        dtype, copy=False
    )
    #: The gather index, widened once: ``np.take`` would otherwise
    #: convert the uint8 codes to ``intp`` again on every query row.
    codes = group.codes.astype(np.intp)

    #: -inf stand-in for the F boundary: deep enough that m rows of
    #: sigma-decay still lose to any reachable alternative.
    neg = dtype(-(m * max_abs + rho + sigma * (m + 2)))
    ramp = (sigma * np.arange(L + 1, dtype=np.int64)).astype(dtype)
    e_off = (rho + ramp[:L]).astype(dtype)  # rho + (j-1)*sigma at column j

    h_prev = np.zeros((s, L + 1), dtype=dtype)  # H of row i-1 (col 0 = boundary)
    f_prev = np.full((s, L + 1), neg, dtype=dtype)  # F of row i-1
    h_cur = np.empty_like(h_prev)
    htmp = np.empty_like(h_prev)  # max(0, F, H_diag + W): H before E
    g = np.empty_like(h_prev)  # scan buffer
    sub = np.empty((s, L), dtype=dtype)
    best = np.zeros(s, dtype=dtype)

    for i in range(m):
        # F[i] = max(F[i-1] - sigma, H[i-1] - rho), elementwise per lane.
        # h_cur is dead until this row's H overwrites all of it below,
        # so it doubles as the H - rho scratch.
        np.subtract(f_prev, sigma, out=f_prev)
        np.subtract(h_prev, rho, out=h_cur)
        np.maximum(f_prev, h_cur, out=f_prev)
        # Similarity of query row i against every lane column: one gather.
        # PackedGroup guarantees every code is <= pad_code, so "clip"
        # never clips; unlike "raise" it writes straight into ``sub``
        # instead of through a temporary of the same size.
        np.take(pp[i], codes, out=sub, mode="clip")
        # Htmp = max(0, F, H[i-1][j-1] + W) — H with E not yet folded in.
        np.add(h_prev[:, :L], sub, out=htmp[:, 1:])
        np.maximum(htmp[:, 1:], f_prev[:, 1:], out=htmp[:, 1:])
        np.maximum(htmp[:, 1:], 0, out=htmp[:, 1:])
        htmp[:, 0] = 0
        # The row maximum of H equals the row maximum of Htmp: E only
        # relays Htmp values minus gap penalties, so folding it in can
        # never raise the maximum.
        np.maximum(best, htmp.max(axis=1), out=best)
        # E via the prefix-max scan, then H = max(Htmp, E).
        np.add(htmp, ramp, out=g)
        np.maximum.accumulate(g, axis=1, out=g)
        np.subtract(g[:, :L], e_off, out=h_cur[:, 1:])
        np.maximum(h_cur[:, 1:], htmp[:, 1:], out=h_cur[:, 1:])
        h_cur[:, 0] = 0
        h_prev, h_cur = h_cur, h_prev

    return best.astype(np.int64)
