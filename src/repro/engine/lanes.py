"""The batched lane sweep: one NumPy step per DP row, all lanes at once.

This is inter-sequence SIMD vectorization (SWIPE, SWAPHI, the SSW
library) expressed in NumPy: lane ``k`` of a :class:`PackedGroup` holds
database sequence ``k``, and each iteration of the single Python loop
advances *every* lane by one query row.  For a group of ``s`` sequences
of padded length ``L`` against a query of length ``m``, the whole group
costs ``m`` vectorized steps over ``(L + 1, s)`` arrays — versus
``s * (m + n)`` interpreter steps for the per-pair wavefront aligner.

The working buffers are laid out lanes-innermost, ``(L + 1, s)``: row
``j`` holds column ``j`` of every lane side by side, the way CUDASW++'s
inter-task kernel interleaves its sequences so a warp's loads coalesce.
Every shift along the row (the diagonal ``H[i-1][j-1]``, the E
candidate's ``j - 1``) is then one contiguous block of memory.

Within a row the horizontal gap state ``E`` has a sequential dependency
(``E[i][j]`` needs ``E[i][j-1]``), which would force a per-column Python
loop.  The sweep removes it with the Gotoh scan identity: because a gap
*extension* never costs more than a gap *open* (``sigma <= rho``, which
:class:`~repro.alphabet.gaps.GapPenalty` enforces), ``E`` can be opened
directly from ``Htmp = max(0, F, H_diag + W)`` — the row's H values
*before* E is folded in::

    E[i][j] = max_{k < j} ( Htmp[k] - rho - (j-1-k) * sigma )
            = max_{k <= j-1} ( Htmp[k] + k*sigma ) - rho - (j-1)*sigma

i.e. a prefix maximum of ``Htmp + k*sigma`` down the row, taken for all
lanes at once by :func:`_prefix_max`.  (Routing a gap through a cell
whose H came from E would pay ``rho`` twice where extending the
original gap pays ``sigma`` — never better when ``sigma <= rho``.)
With the lanes innermost, that scan can be a Hillis–Steele doubling
scan (Snytsar's log-step lazy-F form): ``ceil(log2(L + 1))``
elementwise maxima of contiguous blocks, each over every lane, instead
of one ``np.maximum.accumulate`` that walks the row element by
element.  A rule on lane count and dtype (:data:`_DOUBLING_MIN_LANES`)
picks the faster of the two per group.

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

#: Fewest lanes at which :func:`_prefix_max` takes the doubling scan
#: over ``np.maximum.accumulate(axis=0)``, by working dtype; the int64
#: rung always accumulates.  The accumulate costs about 3 ns per element
#: at any lane count and dtype.  The doubling scan makes ``log2`` passes
#: over the buffer and pays a call per pass, so it needs enough lanes
#: per row to amortize both.  Measured on a 2-CPU x86-64 host (numpy
#: 2.4), the scan alone over 512-2,500 rows: doubling wins from about
#: 16 lanes in int16 (1.6-2.3 against 3.1-3.4 ns/element at 16 lanes,
#: 0.8-1.3 against 2.9-3.3 at 128) and from 32 in int32 (2.1-2.3
#: against 2.7-2.9 at 32 lanes); on 256 rows both need twice the lanes.
#: It loses badly on a one-lane group (13-83 against 4-10).  In int64
#: it breaks even at best (3.5 against 3.6 at 64 lanes); the rung needs
#: penalties near the validation cap, hence long rows, and there whole
#: gotoh sweeps ran up to 28% slower with it at 64 and 128 lanes over
#: 1,000-2,500 columns.
_DOUBLING_MIN_LANES: dict[np.dtype, int] = {
    np.dtype(np.int16): 16,
    np.dtype(np.int32): 32,
}


def _takes_doubling(lanes: int, dtype: np.dtype | type) -> bool:
    """Whether :func:`_prefix_max` scans ``lanes``-wide rows of
    ``dtype`` with the doubling scan."""
    return lanes >= _DOUBLING_MIN_LANES.get(np.dtype(dtype), np.inf)


def _prefix_max(g: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Inclusive prefix maximum of ``g`` down axis 0, lane by lane.

    ``g`` and ``spare`` are the calling sweep's two ``(n, lanes)``
    scratch buffers; both are clobbered, and the returned one holds the
    scan.  Groups the :data:`_DOUBLING_MIN_LANES` rule sends to the
    doubling scan ping-pong between the two buffers: step ``k`` folds
    each row ``j >= k`` with row ``j - k``, ``ceil(log2 n)`` steps in
    all.  The rest take ``np.maximum.accumulate`` in place.
    """
    n, lanes = g.shape
    if not _takes_doubling(lanes, g.dtype):
        # The sweep hands both buffers over for the scan.
        np.maximum.accumulate(g, axis=0, out=g)  # repro-lint: disable=RPL101
        return g
    src, dst = g, spare
    k = 1
    while k < n:
        dst[:k] = src[:k]
        np.maximum(src[k:], src[:-k], out=dst[k:])
        src, dst = dst, src
        k *= 2
    return src


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
    #: The gather index, transposed to the lanes-innermost layout and
    #: widened once: ``np.take`` would otherwise convert the uint8
    #: codes to ``intp`` again on every query row.
    codes = np.ascontiguousarray(group.codes.T, dtype=np.intp)

    #: -inf stand-in for the F boundary: deep enough that m rows of
    #: sigma-decay still lose to any reachable alternative.
    neg = dtype(-(m * max_abs + rho + sigma * (m + 2)))
    # Row j of each (L + 1, s) buffer is column j of every lane; row 0
    # is the boundary column.
    #: j * sigma in row j, stored for every lane: broadcasting one
    #: column over a narrow group's rows costs more than reading it.
    ramp = np.repeat(
        (sigma * np.arange(L + 1, dtype=np.int64)).astype(dtype)[:, None],
        s, axis=1,
    )
    h_prev = np.zeros((L + 1, s), dtype=dtype)  # H of row i-1, then row i
    f_prev = np.full((L + 1, s), neg, dtype=dtype)  # F of row i-1
    htmp = np.zeros_like(h_prev)  # max(0, F, H_diag + W): H before E
    g = np.empty_like(h_prev)  # scan buffer
    spare = np.empty_like(h_prev)  # the doubling scan's second buffer
    best = np.zeros_like(h_prev)  # running elementwise maximum of Htmp

    for i in range(m):
        # F[i] = max(F[i-1] - sigma, H[i-1] - rho), elementwise per lane.
        # g is dead until the scan input overwrites all of it below, so
        # it doubles as the H - rho scratch.
        np.subtract(f_prev, sigma, out=f_prev)
        np.subtract(h_prev, rho, out=g)
        np.maximum(f_prev, g, out=f_prev)
        # Htmp = max(0, F, H[i-1][j-1] + W) — H with E not yet folded in.
        # The similarity of query row i against every lane column is one
        # gather straight into Htmp: PackedGroup guarantees every code
        # is <= pad_code, so "clip" never clips, and unlike "raise" it
        # writes into the contiguous block without a temporary.
        np.take(pp[i], codes, out=htmp[1:], mode="clip")
        np.add(htmp[1:], h_prev[:L], out=htmp[1:])
        np.maximum(htmp[1:], f_prev[1:], out=htmp[1:])
        np.maximum(htmp[1:], 0, out=htmp[1:])
        # The maximum of H equals the maximum of Htmp: E only relays
        # Htmp values minus gap penalties, so folding it in can never
        # raise it.  An elementwise running maximum, reduced once at the
        # end, is one contiguous pass; a per-row reduction down axis 0
        # costs up to 12 ns a cell on a narrow group.
        np.maximum(best, htmp, out=best)
        # E[j] = scan[j - 1] - (j - 1) * sigma - rho from the prefix-max
        # scan, then H = max(Htmp, E) into h_prev, whose row i-1 was
        # fully consumed above (its boundary row 0 stays zero).
        np.add(htmp, ramp, out=g)
        scan = _prefix_max(g, spare)
        np.subtract(scan[:L], ramp[:L], out=h_prev[1:])
        np.subtract(h_prev[1:], rho, out=h_prev[1:])
        np.maximum(h_prev[1:], htmp[1:], out=h_prev[1:])

    return best.max(axis=0).astype(np.int64)
