"""Strip-sweep lane engine for the long-tail (intra-task) dispatch side.

The batched engines pay for padding: a length-sorted tail group mixing a
700-residue sequence with a 3,600-residue one sweeps the full
``(size, max_len)`` rectangle, and BENCH showed the tail group packing
at ~31% efficiency.  CUDASW++'s answer (Section IV) is to stop batching
long subjects against each other and instead *tile a single long
subject* into fixed-size strips processed by one cooperating block.

This module is that tiling in NumPy lane form.  Each subject of length
``L`` is cut into ``ceil(L / W)`` column strips of fixed width ``W``
(:data:`DEFAULT_STRIP_WIDTH`); every strip becomes one lane of a
``(W, total_strips)`` code matrix, so the padding per subject is bounded
by ``W - 1`` cells **regardless of its length** — a 3,597-residue tail
subject takes 8 strips of 512 (4,096 cells, about 88% useful) instead
of dragging a whole group down to its width.  One Python step per query
row advances *every strip of every subject* at once, exactly like the
row sweep of :mod:`~repro.engine.lanes`, and in its lanes-innermost
layout: row ``j`` of each buffer is in-strip column ``j`` of every
strip, so in-strip shifts are contiguous blocks.

Strips of one subject are not independent: within a DP row, H and E flow
across the strip boundary.  Both dependencies close in the same scan
forms the engine already uses:

* the *diagonal* term of strip ``s``'s column 0 is simply the previous
  row's value at strip ``s - 1``'s last column — a shifted copy of one
  buffer row;
* the *horizontal* gap term uses the Gotoh scan identity
  (``E[i][c] = max_{k<c}(Htmp[k] + k*sigma) - rho - (c-1)*sigma``,
  valid because ``sigma <= rho``): an in-strip prefix maximum of
  ``Htmp + j*sigma`` per strip (the row sweep's
  :func:`~repro.engine.lanes._prefix_max`, a doubling scan once there
  are enough strips), then one **segmented** prefix maximum over the
  per-strip boundary values — offset by ``s * W * sigma`` so decay
  across whole strips is exact, and biased by a per-sequence ramp so
  one ``np.maximum.accumulate`` cannot leak a carry from one subject's
  strips into the next's.

The vertical gap chain F never crosses a strip boundary (strips tile
*columns*), so it stays elementwise.  Padded cells sit only in each
subject's final strip, read the same poison sentinel as the row sweep,
and can only relay decayed in-bounds values — scores are bit-identical
to :func:`~repro.sw.scalar.sw_score_scalar`, which the mixed-engine
equivalence suite asserts.
"""

from __future__ import annotations

import numpy as np

from repro.alphabet import GapPenalty
from repro.engine.lanes import (
    _prefix_max,
    _working_dtype,
    padded_lane_profile,
)
from repro.engine.pack import DEFAULT_STRIP_WIDTH, PackedGroup
from repro.obs import AnyInstrumentation, current as obs_current
from repro.sequence.profile import QueryProfile
from repro.sw.utils import validate_penalties

__all__ = [
    "DEFAULT_STRIP_WIDTH",
    "count_strips_work",
    "plan_strip_counts",
    "score_packed_group_strips",
]

def plan_strip_counts(
    lengths: np.ndarray, strip_width: int
) -> np.ndarray:
    """Strips per subject: ``ceil(length / strip_width)``, minimum 1."""
    if strip_width <= 0:
        raise ValueError(
            f"strip width must be positive, got {strip_width}"
        )
    lengths = np.asarray(lengths, dtype=np.int64)
    counts = (lengths + strip_width - 1) // strip_width
    return np.maximum(counts, 1)


def _strip_tiles(
    group: PackedGroup, w: int, offsets: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The ``(W, strips)`` gather index of a group's strip tiling.

    Column ``s`` is one strip lane: subject ``q``'s true residues,
    flattened across its ``counts[q]`` strips from ``offsets[q]`` on,
    pad codes after them.  Built ``intp`` once rather than converted
    from uint8 on every query row.
    """
    tiles = np.full((int(offsets[-1]), w), group.pad_code, dtype=np.intp)
    for q in range(group.size):
        length = int(group.lengths[q])
        s0 = int(offsets[q])
        tiles[s0 : s0 + int(counts[q])].reshape(-1)[:length] = (
            group.codes[q, :length]
        )
    return np.ascontiguousarray(tiles.T)


def count_strips_work(
    instr: AnyInstrumentation,
    m: int,
    group: PackedGroup,
    strip_width: int,
    total_strips: int,
) -> None:
    """Charge one strip-group sweep's deterministic work counters.

    ``padded_cells`` is the swept strip rectangle ``total_strips * W``
    per query row — the quantity the dispatch decision optimizes — not
    the ``(size, max_len)`` packing rectangle the batched engines would
    have swept for the same subjects.
    """
    instr.count("engine.strips.groups", 1)
    instr.count("engine.strips.sequences", group.size)
    instr.count("engine.strips.strip_lanes", total_strips)
    instr.count("engine.strips.rows", m)
    instr.count("engine.strips.useful_cells", m * group.residues)
    instr.count(
        "engine.strips.padded_cells", m * total_strips * strip_width
    )


def score_packed_group_strips(
    profile: QueryProfile,
    group: PackedGroup,
    gaps: GapPenalty,
    *,
    strip_width: int | None = None,
) -> np.ndarray:
    """Optimal local-alignment score of the query against every subject.

    Re-tiles each subject's true-length codes into ``strip_width``-wide
    strip lanes and sweeps all strips per query row.  Returns an
    ``int64`` array of ``group.size`` scores in lane order,
    bit-identical to :func:`~repro.engine.lanes.score_packed_group`.

    The ``(W, strips)`` buffers take their dtype from
    :func:`~repro.engine.lanes._working_dtype` at the strip width ``W``,
    not at the tiled row length: everything that crosses a strip
    boundary (the whole-strip decay ``off``, the segmentation bias and
    the carry scan) is int64.  With ``M = m * max_abs`` (``max_abs``:
    the largest similarity magnitude) and
    ``neg = -(M + rho + sigma * (m + 2))`` the narrow intermediates are

    * the profile ``pp`` and the similarity gathered into ``htmp``:
      ``[-(M + 1), M]`` (the pad sentinel is ``-(M + 1)``);
    * H (``h_prev`` at the end of a row, and ``wrap``): ``[0, M]``;
      ``Htmp``: ``[0, M]`` after its clamp, ``[-(M + 1), 2M]`` before;
    * ``H - rho`` (F's scratch, held in ``g``): ``[-rho, M]``;
    * F: ``neg - sigma`` on row 0, ``[-rho - sigma, M]`` after;
    * in-strip scan (``g``, ``spare``): ``[0, M + (W - 1) * sigma]``;
    * the carry cast into ``h_prev[0]``: an earlier strip's scan value
      decayed by whole strips, clipped from below at ``neg`` in int64
      before the cast, so ``[neg, M + (W - 1) * sigma]``;
    * the E candidate built in ``h_prev``: ``max(G[j - 1] or neg,
      carry)`` minus ``j * sigma`` (``[neg, M + (W - 1) * sigma]``),
      then minus ``rho - sigma``.  Its low extreme is
      ``neg - rho + sigma = -(M + 2 * rho + sigma * (m + 1))`` in
      column 0, its high one below ``M + W * sigma``.

    ``_working_dtype``'s ``bound = 2M + rho + sigma * (W + 2m + 4)``
    exceeds every magnitude but the column-0 E candidate's, which stays
    below ``bound + rho < 2 * bound``: inside the dtype, because each
    narrow rung keeps ``bound`` below half its range.
    """
    validate_penalties(gaps)
    if group.pad_code != profile.matrix.alphabet.size:
        raise ValueError(
            f"pad code must be the alphabet-size sentinel "
            f"{profile.matrix.alphabet.size}, got {group.pad_code}"
        )
    w = int(
        strip_width
        if strip_width is not None
        else (group.strip_width or DEFAULT_STRIP_WIDTH)
    )
    m = profile.length
    n = group.size
    lengths = group.lengths.astype(np.int64)
    counts = plan_strip_counts(lengths, w)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    #: subject index and in-subject strip index of every strip lane.
    seq_of = np.repeat(np.arange(n, dtype=np.int64), counts)
    local = np.arange(total, dtype=np.int64) - offsets[:-1][seq_of]
    first = local == 0  # strip 0 of each subject: no carry, no wrap

    rho, sigma = gaps.rho, gaps.sigma
    max_abs = max(int(np.abs(profile.scores).max()), 1)
    dtype = _working_dtype(m, w, max_abs, gaps)
    instr = obs_current()
    if instr.enabled:
        count_strips_work(instr, m, group, w, total)
        if dtype is np.int16:
            instr.count("engine.strips.int16_groups", 1)

    codes = _strip_tiles(group, w, offsets, counts)
    pp = padded_lane_profile(profile, group.pad_code)
    pp = pp.astype(dtype, copy=False)

    #: -inf stand-in, decay-proof over m rows (same bound as the row
    #: sweep's F seed).
    neg = dtype(-(m * max_abs + rho + sigma * (m + 2)))
    neg64 = np.int64(int(neg))
    #: j * sigma in row j, stored for every strip lane: broadcasting one
    #: column over a few strips' rows costs more than reading it.
    rampw = np.repeat(
        (sigma * np.arange(w, dtype=np.int64)).astype(dtype)[:, None],
        total, axis=1,
    )
    #: Whole-strip decay offset of strip s's boundary value:
    #: local_strip * W * sigma (int64 — can exceed a narrow dtype for
    #: adversarial penalties).
    off = np.int64(sigma) * w * local
    #: Segmentation bias: adding big * subject_index before the
    #: cross-strip accumulate leaves any value carried across a subject
    #: boundary at least ``big`` below its segment's floor once the
    #: bias comes back off, where the -inf clip below catches it.
    #: big * n stays far inside int64 for every validated penalty.
    big = (
        np.int64(m) * max_abs
        + np.int64(sigma) * (np.int64(total) * w + w + 4)
        + np.int64(rho)
        - neg64
        + 1
    )
    seg_pen = big * seq_of

    # Row j of each (W, strips) buffer is in-strip column j of every
    # strip lane.
    h_prev = np.zeros((w, total), dtype=dtype)  # H of row i-1, then row i
    f = np.full((w, total), neg, dtype=dtype)
    htmp = np.empty_like(h_prev)  # max(0, F, H_diag + W): H before E
    g = np.empty_like(h_prev)  # in-strip scan buffer
    spare = np.empty_like(h_prev)  # the doubling scan's second buffer
    wrap = np.zeros(total, dtype=dtype)  # diagonal of in-strip column 0
    best = np.zeros_like(h_prev)  # running elementwise maximum of Htmp
    bshift = np.empty(total, dtype=np.int64)
    key = np.empty(total, dtype=np.int64)
    carry = np.empty(total, dtype=np.int64)

    for i in range(m):
        # F[i] = max(F[i-1] - sigma, H[i-1] - rho): vertical chains live
        # inside a column, so strips tile them without any boundary.
        # g is dead until the scan input overwrites it, so it holds
        # H - rho.
        np.subtract(f, sigma, out=f)
        np.subtract(h_prev, rho, out=g)
        np.maximum(f, g, out=f)
        # Similarity of query row i against every strip column, gathered
        # straight into Htmp ("clip" as in the row sweep: in range, and
        # no temporary), plus the diagonal H[i-1][c-1]: an in-strip
        # shift, and in column 0 a wrap from the previous strip's last
        # column (zero at each subject's strip 0).
        np.take(pp[i], codes, out=htmp, mode="clip")
        np.add(htmp[1:], h_prev[:-1], out=htmp[1:])
        wrap[1:] = h_prev[-1, :-1]
        wrap[first] = 0
        np.add(htmp[0], wrap, out=htmp[0])
        np.maximum(htmp, f, out=htmp)
        np.maximum(htmp, 0, out=htmp)
        # The sequence maximum of H equals the sequence maximum of Htmp
        # (E and the carries only relay decayed Htmp values), so an
        # elementwise running maximum reduces exactly at the end, per
        # strip and then per subject.
        np.maximum(best, htmp, out=best)
        # In-strip inclusive prefix maximum of Htmp + j*sigma.
        np.add(htmp, rampw, out=g)
        scan = _prefix_max(g, spare)
        # Cross-strip carry: exclusive segmented prefix maximum of each
        # strip's boundary value B[s] = G[s, -1] + s_local * W * sigma.
        np.add(scan[-1, :-1], off[:-1], out=bshift[1:])
        bshift[0] = neg64
        bshift[first] = neg64
        np.add(bshift, seg_pen, out=key)
        np.maximum.accumulate(key, out=key)
        np.subtract(key, seg_pen, out=carry)
        np.subtract(carry, off, out=carry)  # into strip-local terms
        np.maximum(carry, neg64, out=carry)  # clip leaked/-inf values
        # E candidate at in-strip column j, built in h_prev (fully
        # consumed above):
        #   max(G[s, j-1], carry[s]) - j*sigma - (rho - sigma),
        # where column 0 has no in-strip G (its carry term crosses the
        # strip boundary, the "-1" column) and the clip keeps
        # carry >= neg.  Then H row i = max(Htmp, E).
        np.copyto(h_prev[0], carry, casting="unsafe")
        np.maximum(scan[:-1], h_prev[0], out=h_prev[1:])
        np.subtract(h_prev, rampw, out=h_prev)
        np.subtract(h_prev, rho - sigma, out=h_prev)
        np.maximum(h_prev, htmp, out=h_prev)

    scores: np.ndarray = np.maximum.reduceat(
        best.max(axis=0).astype(np.int64), offsets[:-1]
    )
    return scores
