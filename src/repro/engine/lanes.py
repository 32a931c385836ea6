"""The lane sweep: one NumPy step per DP row, every lane at once.

This is inter-sequence SIMD vectorization (SWIPE, SWAPHI, the SSW
library) expressed in NumPy.  Each subject of a :class:`PackedGroup` is
cut into ``ceil(len / W)`` column strips of width ``W``, every strip is
one lane of a ``(W, strips)`` working set, and each iteration of the
single Python loop advances *every* lane by one query row: ``m``
vectorized steps for the whole group, versus ``s * (m + n)``
interpreter steps for the per-pair wavefront aligner.  Two entry points
share that one sweep:

* :func:`score_packed_group` (the ``gotoh`` kernel) sweeps at
  ``W = max_len``: every subject is one strip, the inter-task form
  where SWAPHI puts one subject per lane;
* :func:`score_packed_group_strips` (the ``strips`` kernel) sweeps at a
  fixed strip width (:data:`~repro.engine.pack.DEFAULT_STRIP_WIDTH`),
  the intra-task form CUDASW++ uses for long subjects (Section IV):
  padding per subject is bounded by ``W - 1`` cells **regardless of its
  length**, so a 3,597-residue tail subject takes 8 strips of 512
  (about 88% useful) instead of dragging a group down to its width.

The working buffers are laid out lanes-innermost, ``(W, strips)``: row
``j`` holds in-strip column ``j`` of every strip side by side, the way
CUDASW++'s inter-task kernel interleaves its sequences so a warp's
loads coalesce.  Every in-strip shift (the diagonal ``H[i-1][j-1]``,
the E candidate's ``j - 1``) is then one contiguous block of memory.

The similarities come from a *score profile*, SWAPHI's companion to
the inter-sequence layout: once per group, one contiguous ``(W,
strips)`` tile per distinct query symbol holds that symbol's
similarity to every tiled residue, so each query row reads its
symbol's tile instead of gathering through an index (the query-profile
lookup CUDASW++ makes from texture memory).  The tiles are int8
whenever every similarity fits, and in the working dtype otherwise.

Within a row the horizontal gap state ``E`` has a sequential dependency
(``E[i][j]`` needs ``E[i][j-1]``), which would force a per-column Python
loop.  The sweep removes it with the Gotoh scan identity: because a gap
*extension* never costs more than a gap *open* (``sigma <= rho``, which
:class:`~repro.alphabet.gaps.GapPenalty` enforces), ``E`` can be opened
directly from ``Htmp = max(0, F, H_diag + W)`` — the row's H values
*before* E is folded in::

    E[i][j] = max_{k < j} ( Htmp[k] - rho - (j-1-k) * sigma )
            = max_{k <= j-1} ( Htmp[k] + k*sigma ) - rho - (j-1)*sigma

i.e. a prefix maximum of ``Htmp + k*sigma`` down the strip, taken for
all lanes at once by :func:`_prefix_max`.  (Routing a gap through a
cell whose H came from E would pay ``rho`` twice where extending the
original gap pays ``sigma`` — never better when ``sigma <= rho``.)
With the lanes innermost, that scan can be a Hillis–Steele doubling
scan (Snytsar's log-step lazy-F form): ``ceil(log2 W)`` elementwise
maxima of contiguous blocks, each over every lane, instead of one
``np.maximum.accumulate`` that walks the strip element by element.  A
rule on lane count and dtype (:data:`_DOUBLING_MIN_LANES`) picks the
faster of the two per group.

The doubling scan runs only as deep as a gap can still score, where
Snytsar's lazy-F loop stops too: a running bound on the row's scores
caps how many columns an E term can carry a positive score across, and
the scan stops doubling once its window covers them (the exactness
argument is in :func:`_sweep`).  Unrelated subjects score far below the
gap cost of their lengths, so on a database search most rows take a
few of the full ``ceil(log2 W)`` steps.

The working dtype comes from a static ladder (int16, int32, int64)
sized for the worst score a group could reach, but a protein search's
scores sit far below it.  So a group whose rows are wide enough to
amortize the extra calls (:data:`_INT8_MIN_ROW_CELLS`) starts one rung
lower, in int8, as SSW scores in 8-bit lanes first: one byte a cell,
the int8 tiles added straight onto the diagonal, and, since the ramp
``j * sigma`` does not fit int8, a scan that decays as it doubles
instead.  The running bound that caps the scan's depth also says when
the next rows could pass 127; the group then promotes in place, once,
to its ladder rung and finishes there (the range proof is in
:func:`_sweep`).

When a subject spans several strips, H and E flow across its strip
boundaries within a DP row, and both dependencies close in scan form:

* the *diagonal* term of a strip's column 0 is the previous row's value
  at the preceding strip's last column — a shifted copy of one buffer
  row (the *wrap*);
* the *horizontal* term takes one **segmented** prefix maximum over the
  per-strip boundary values of the in-strip scan (the *carry*), offset
  by ``s * W * sigma`` so decay across whole strips is exact, and
  biased by a per-subject ramp so one ``np.maximum.accumulate`` cannot
  leak a carry from one subject's strips into the next's.

The vertical gap chain F never crosses a strip boundary (strips tile
*columns*), so it stays elementwise.  When every subject fits one strip
the wrap and the carry do nothing, and the sweep skips them.

Padded cells sit only in each subject's final strip, after all its
residues, and score 0.  Nothing reads them but later pad cells of the
same subject, so they can only relay that subject's values through
steps that never add, and never raise its maximum (see :func:`_sweep`).
Scores are therefore bit-identical to
:func:`~repro.sw.scalar.sw_score_scalar` on every lane, which the
equivalence suite asserts.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.alphabet import GapPenalty
from repro.engine.pack import DEFAULT_STRIP_WIDTH, PackedGroup, strip_counts
from repro.obs import AnyInstrumentation, current as obs_current
from repro.sequence.profile import QueryProfile
from repro.sw.utils import validate_penalties

__all__ = [
    "count_strips_work",
    "count_sweep_work",
    "score_packed_group",
    "score_packed_group_strips",
    "sweep_bytes_per_cell",
]

#: Fewest lanes at which :func:`_prefix_max` takes the doubling scan
#: over ``np.maximum.accumulate(axis=0)``, by working dtype; the int64
#: rung always accumulates.  The accumulate costs about 3 ns per element
#: at any lane count and dtype.  The doubling scan makes ``log2`` passes
#: over the buffer and pays a call per pass, so it needs enough lanes
#: per row to amortize both.  Measured on a 2-CPU x86-64 host (numpy
#: 2.4), the scan alone at full depth over 512-2,500 rows: doubling wins
#: from about 16 lanes in int16 (1.6-2.3 against 3.1-3.4 ns/element at
#: 16 lanes, 0.8-1.3 against 2.9-3.3 at 128) and from 32 in int32
#: (2.1-2.3 against 2.7-2.9 at 32 lanes); on 256 rows both need twice
#: the lanes.  It loses badly on a one-lane group (13-83 against 4-10).
#: In int64 it breaks even at best (3.5 against 3.6 at 64 lanes); the
#: rung needs penalties near the validation cap, hence long rows, and
#: there whole gotoh sweeps ran up to 28% slower with it at 64 and 128
#: lanes over 1,000-2,500 columns.
#:
#: The depth cap (:func:`_sweep`) moves the crossover with the data, so
#: the rule stays.  Whole gotoh sweeps, same host: on random subjects
#: doubling won from 12-16 lanes in both narrow rungs (int32, m = 1,200,
#: 24 lanes over 360 columns: 5.1 against 7.0 ns/cell), but one homolog
#: lane keeps every later row of its group at full depth, and there it
#: lost below the crossovers above (same shape: 8.5 against 6.4).  The
#: table is in ``docs/engine.md``.
_DOUBLING_MIN_LANES: dict[np.dtype, int] = {
    np.dtype(np.int16): 16,
    np.dtype(np.int32): 32,
}


#: Rows between exact reductions of the running maximum that bounds
#: the doubling scan's depth (see :func:`_sweep`).
_BOUND_EVERY = 4


def _takes_doubling(lanes: int, dtype: np.dtype | type) -> bool:
    """Whether :func:`_prefix_max` scans ``lanes``-wide rows of
    ``dtype`` with the doubling scan."""
    return lanes >= _DOUBLING_MIN_LANES.get(np.dtype(dtype), np.inf)


def _doubling_steps(reach: int, n: int) -> int:
    """Steps the doubling scan takes down ``n`` rows at ``reach``: the
    fewest whose window ``2**steps`` covers ``min(reach, n)``, so at most
    ``ceil(log2 n)`` and none when ``reach <= 1``."""
    return max(min(reach, n) - 1, 0).bit_length()


def _prefix_max(g: np.ndarray, spare: np.ndarray, reach: int) -> np.ndarray:
    """Prefix maximum of ``g`` down axis 0, lane by lane, as deep as
    ``reach`` rows.

    ``g`` and ``spare`` are the sweep's two ``(n, lanes)`` scratch
    buffers; both are clobbered, and the returned one holds the scan.
    Groups the :data:`_DOUBLING_MIN_LANES` rule sends to the doubling
    scan ping-pong between the two buffers: step ``k`` folds each row
    ``j >= k`` with row ``j - k``, and the scan stops once its window
    covers ``reach`` rows (:func:`_doubling_steps`).  Row ``j`` of the
    result is then the maximum of rows ``j - 2**steps + 1 .. j``, the
    whole prefix once ``reach >= n``.  The rest take
    ``np.maximum.accumulate`` in place, the whole prefix at any
    ``reach``.
    """
    n, lanes = g.shape
    if not _takes_doubling(lanes, g.dtype):
        # The sweep hands both buffers over for the scan.
        np.maximum.accumulate(g, axis=0, out=g)
        return g
    src, dst = g, spare
    for step in range(_doubling_steps(reach, n)):
        k = 1 << step
        dst[:k] = src[:k]
        np.maximum(src[k:], src[:-k], out=dst[k:])
        src, dst = dst, src
    return src


def _decaying_max(
    htmp: np.ndarray, g: np.ndarray, spare: np.ndarray, reach: int,
    sigma: int,
) -> np.ndarray:
    """The int8 rung's ramp-free doubling scan of ``htmp`` down axis 0,
    lane by lane, as deep as ``reach`` rows.

    Step ``k`` folds each row ``j >= k`` with row ``j - k`` decayed by
    ``k * sigma``, so once the window ``2**steps`` covers ``reach``
    (:func:`_doubling_steps`) row ``j`` of the result is the maximum of
    ``htmp[j - d] - d * sigma`` over ``d < 2**steps``: the scan the
    wider rungs take of ``htmp + j * sigma``, less the ramp.  ``htmp``
    is only read: the first step writes the scan into ``g``, and later
    ones fold ``g`` in place through the decayed copy in ``spare``, two
    calls a step.  Returns the buffer holding the scan, ``htmp`` itself
    when no step runs.
    """
    steps = _doubling_steps(reach, htmp.shape[0])
    if not steps:
        return htmp
    np.subtract(htmp[:-1], sigma, out=spare[1:])
    np.maximum(htmp[1:], spare[1:], out=g[1:])
    np.copyto(g[:1], htmp[:1])
    for step in range(1, steps):
        k = 1 << step
        np.subtract(g[:-k], k * sigma, out=spare[k:])
        np.maximum(g[k:], spare[k:], out=g[k:])
    return g


#: The int8 rung's largest value; every int8 intermediate of a sweep
#: stays within ``[-_INT8_MAX, _INT8_MAX]`` (see :func:`_sweep`).
_INT8_MAX = int(np.iinfo(np.int8).max)


#: Fewest cells a swept row (``strips * W``) needs for its group to
#: start in the int8 rung (:func:`_enters_int8`); narrower groups sweep
#: their ladder rung.  An int8 row makes more calls than a ladder one
#: (the decaying scan's subtract a step, the carry's clip and fold) and
#: moves half the bytes, so it pays once a row is long enough to
#: amortize the calls, whatever the row's shape.  Whole sweeps at
#: m = 300 on random subjects under BLOSUM62 and the default penalties,
#: int8 time over int16 time, best of 5-7 interleaved runs on a 2-CPU
#: x86-64 host (numpy 2.4):
#:
#: * up to 4,096 cells int8 mostly loses, 1.02-1.79x at 1-128 lanes
#:   (64 lanes over 64 columns: 5.2-5.5 against 4.9-5.0 ns/cell), but
#:   0.93-0.99x at 2 lanes over 2,000 columns, 8 over 400, 32 over 110
#:   and 8 one-strip subjects in the strips kernel;
#: * 4,800-7,040 cells: 0.96-1.06x from 16 lanes (16 over 300, 360 and
#:   384, 32 over 200, 64 over 80, 96 and 110, 128 over 48), 0.70-0.99x
#:   below, where int16 accumulates (1 over 5,000, 2 over 3,000, 4 over
#:   1,200 and 1,536, 8 over 600, 12 strips);
#: * from 8,192 cells: 0.49-0.95x, but for the strips kernel's carry
#:   over 16 strips of one or four subjects (1.02-1.04x).
#:
#: So the rule sits at the top of the tie band.  The table is in
#: ``docs/engine.md``; every row of the four bench workloads' groups
#: holds 14,080 cells or more.
_INT8_MIN_ROW_CELLS = 6144


def _int8_holds(top: int, hi: int) -> bool:
    """Whether the next :data:`_BOUND_EVERY` rows of a sweep whose
    scores are at most ``top`` so far, and whose similarities are at
    most ``hi``, stay inside the int8 rung."""
    return top + _BOUND_EVERY * hi <= _INT8_MAX


def _enters_int8(
    cells: int, hi: int, max_abs: int, gaps: GapPenalty
) -> bool:
    """Whether a sweep of ``cells``-cell rows starts in the int8 rung:
    rows of at least :data:`_INT8_MIN_ROW_CELLS`, similarities inside
    int8 (the tiles and ``Htmp``'s low side need ``max_abs <= 127``),
    ``rho + sigma`` inside int8 and room for the first rows
    (:func:`_int8_holds` at ``top = 0``)."""
    return (
        cells >= _INT8_MIN_ROW_CELLS
        and max_abs <= _INT8_MAX
        and gaps.rho + gaps.sigma <= _INT8_MAX
        and _int8_holds(0, hi)
    )


def count_sweep_work(
    instr: AnyInstrumentation,
    m: int,
    group: PackedGroup,
    width: int,
    strips: int,
    dtype: type,
    scan_steps: int,
    int8_rows: int,
) -> None:
    """Charge one gotoh group sweep's work counters.

    Useful vs. padded cells is the Figure 2 distinction: the sweep
    *computes* the whole ``(size, max_len)`` rectangle ``m`` times, but
    only ``m * residues`` of those cells are real DP cells.
    ``scan_steps`` is the doubling steps the sweep ran, at most ``m *
    ceil(log2 width)``, and is charged only when some ran (none do on
    the accumulate side).  ``dtype`` is the group's ladder rung
    (:func:`_working_dtype`), and ``int8_rows`` the rows swept in the
    int8 rung below it; a group that swept some but not all of its rows
    in int8 was promoted mid-sweep.  Both int8 counters are charged
    only when nonzero.  Groups
    scored in pool workers charge these counts worker-side, and each
    accepted chunk ships its registry back as telemetry that the parent
    merges once (see ``repro.engine.executor``), so totals are identical
    on the serial and fanned-out paths.
    """
    instr.count("engine.sweep.groups", 1)
    instr.count("engine.sweep.rows", m)
    instr.count("engine.sweep.lane_steps", m * strips)
    instr.count("engine.sweep.useful_cells", m * group.residues)
    instr.count("engine.sweep.padded_cells", m * strips * width)
    if scan_steps:
        instr.count("engine.sweep.scan_steps", scan_steps)
    if int8_rows:
        instr.count("engine.sweep.int8_rows", int8_rows)
    if 0 < int8_rows < m:
        instr.count("engine.sweep.promotions", 1)
    if dtype is np.int16:
        instr.count("engine.sweep.int16_groups", 1)


def count_strips_work(
    instr: AnyInstrumentation,
    m: int,
    group: PackedGroup,
    width: int,
    strips: int,
    dtype: type,
    scan_steps: int,
    int8_rows: int,
) -> None:
    """Charge one strip-group sweep's work counters.

    ``padded_cells`` is the swept strip rectangle ``strips * W`` per
    query row — the quantity the dispatch decision optimizes — not
    the ``(size, max_len)`` packing rectangle the gotoh kernel would
    have swept for the same subjects.  ``scan_steps``, ``dtype`` and
    ``int8_rows`` are as for :func:`count_sweep_work`; the steps are at
    most ``m * ceil(log2 W)``.
    """
    instr.count("engine.strips.groups", 1)
    instr.count("engine.strips.sequences", group.size)
    instr.count("engine.strips.strip_lanes", strips)
    instr.count("engine.strips.rows", m)
    instr.count("engine.strips.useful_cells", m * group.residues)
    instr.count("engine.strips.padded_cells", m * strips * width)
    if scan_steps:
        instr.count("engine.strips.scan_steps", scan_steps)
    if int8_rows:
        instr.count("engine.strips.int8_rows", int8_rows)
    if 0 < int8_rows < m:
        instr.count("engine.strips.promotions", 1)
    if dtype is np.int16:
        instr.count("engine.strips.int16_groups", 1)


def _working_dtype(
    m: int, L: int, max_abs_score: int, gaps: GapPenalty
) -> type:
    """The narrowest of int16, int32 and int64 every intermediate fits.

    ``L`` is the swept row length, the strip width.  The extreme
    magnitudes are the prefix-scan ramp (``L * sigma``), the -inf
    stand-in a cross-strip carry is clipped to before it is cast into
    the row (``neg`` in :func:`_sweep`, ``~m * sigma + rho`` below
    ``-m * |W|_max``) and accumulated similarity (``m * |W|_max``);
    ``bound`` below covers their sum (the range proof is in
    :func:`_sweep`).  One ladder, three rungs; the two
    narrow ones keep ``bound`` below half their dtype's range:

    * **int16** when ``bound < 2**14``: short queries and subjects under
      ordinary matrices and penalties — the bulk of a protein search.
      Half the bytes of int32 per cell, so every elementwise pass and
      the similarity copy move half the memory.
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


def _max_abs(profile: QueryProfile) -> int:
    """The query's largest similarity magnitude, at least 1."""
    return max(int(np.abs(profile.scores).max()), 1)


def _tile_dtype(max_abs: int, dtype: type) -> type:
    """The similarity tiles' dtype: int8 while every similarity fits in
    it (``max_abs <= 127``, every NCBI matrix), else the working dtype
    ``dtype``."""
    return np.int8 if max_abs <= np.iinfo(np.int8).max else dtype


#: ``(W, strips)`` buffers of the working dtype a sweep holds: H, F,
#: Htmp, the scan's two, the running maximum and the gap ramp.  Rows in
#: the int8 rung hold six int8 ones (no ramp), and a promotion frees
#: them before the wider ones exist, so the ladder rung's seven bound
#: the peak either way.
_SWEEP_BUFFERS = 7

#: Bytes per swept cell a search holds beside one group's sweep: the
#: database and its packed groups, rounded up.
_HELD_BYTES_PER_CELL = 16


def sweep_bytes_per_cell(
    profile: QueryProfile, gaps: GapPenalty, w: int
) -> int:
    """Peak bytes a search holds per swept cell while it sweeps one
    group at rows of at most ``w`` columns: the figure its planner
    prices each group's rectangle at.

    The :data:`_SWEEP_BUFFERS` working buffers in the working dtype of
    a ``w``-column row (at a search's widest row, the widest dtype any
    of its groups takes), one
    similarity tile per distinct query symbol in the tile dtype
    (:func:`_tile_dtype`), and :data:`_HELD_BYTES_PER_CELL`.  The uint8
    code tiling and the ``intp`` index ``np.take`` widens it to (9
    bytes a cell) are freed before the buffers are allocated, and
    seven buffers of the narrowest rung already take 14.
    """
    max_abs = _max_abs(profile)
    dtype = np.dtype(_working_dtype(profile.length, w, max_abs, gaps))
    tile = np.dtype(_tile_dtype(max_abs, dtype.type))
    # Distinct query symbols, without np.unique's plain form (which
    # imports numpy.ma on first use).
    symbols = int(np.count_nonzero(np.bincount(profile.query_codes)))
    return (
        _SWEEP_BUFFERS * dtype.itemsize
        + symbols * tile.itemsize
        + _HELD_BYTES_PER_CELL
    )


def _strip_tiles(
    group: PackedGroup, w: int, counts: np.ndarray
) -> np.ndarray:
    """The ``(W, strips)`` uint8 codes of a group's strip tiling.

    Column ``s`` is one strip lane: ``W`` consecutive columns of one
    subject's code row, its ``counts[q]`` strips in order, pad codes
    past its length.  At ``W = max_len`` this is the transposed code
    matrix.
    """
    n, L = group.codes.shape
    k = int(counts.max())
    rows = np.full((n, k * w), group.pad_code, dtype=group.codes.dtype)
    rows[:, :L] = group.codes
    kept = np.arange(k, dtype=np.int64) < counts[:, None]  # (n, k)
    tiles = rows.reshape(n, k, w)[kept]
    return np.ascontiguousarray(tiles.T)


def _gap_ramp(w: int, strips: int, sigma: int, dtype: type) -> np.ndarray:
    """``j * sigma`` in row ``j`` of a ``(W, strips)`` buffer, stored for
    every strip lane: broadcasting one column over a narrow group's
    rows costs more than reading it."""
    return np.repeat(
        (sigma * np.arange(w, dtype=np.int64)).astype(dtype)[:, None],
        strips, axis=1,
    )


def _similarity_tiles(
    profile: QueryProfile, group: PackedGroup, codes: np.ndarray,
    dtype: type,
) -> tuple[np.ndarray, np.ndarray]:
    """The score profile of a strip tiling: one similarity tile per
    distinct query symbol.

    Returns ``(tiles, row_tile)``.  ``tiles[t]`` is the contiguous
    ``(W, strips)`` similarity of the ``t``-th distinct query symbol
    against every tiled code, pads scoring 0, and query row ``i`` reads
    ``tiles[row_tile[i]]``.  One ``np.take`` along the symbol table's
    code axis builds them all, symbol axis outermost.
    """
    size = profile.matrix.alphabet.size
    if group.pad_code != size:
        raise ValueError(
            f"pad code must be the alphabet-size sentinel {size}, "
            f"got {group.pad_code}"
        )
    _, first, row_tile = np.unique(
        profile.query_codes, return_index=True, return_inverse=True
    )
    # table[t, c] = scores[c, first[t]]: distinct symbol t against c.
    table = np.zeros((first.size, size + 1), dtype=dtype)
    table[:, :size] = profile.scores[:, first].T
    return np.take(table, codes, axis=1), row_tile


def _sweep(
    profile: QueryProfile,
    group: PackedGroup,
    gaps: GapPenalty,
    w: int,
    charge: Callable[
        [AnyInstrumentation, int, PackedGroup, int, int, type, int, int],
        None,
    ],
) -> np.ndarray:
    """Optimal local-alignment score of the query against every subject,
    sweeping ``w``-wide strips; ``charge`` records the work counters.

    Returns an ``int64`` array of ``group.size`` scores in lane order.
    The ``(W, strips)`` buffers take their dtype from
    :func:`_working_dtype` at the strip width ``W``, not at a subject's
    length: everything that crosses a strip boundary (the whole-strip
    decay ``off``, the segmentation bias and the carry scan) is int64.
    With ``M = m * max_abs`` (``max_abs``: the largest similarity
    magnitude, at least 1) and ``neg = -(M + rho + sigma * (m + 2))``
    the narrow intermediates are

    * the similarity tiles and the row copied into ``htmp``:
      ``[-max_abs, max_abs]`` (pads score 0); int8 tiles hold it
      whenever ``max_abs <= 127``, and wider ones are in the working
      dtype;
    * H (``h_prev`` at the end of a row, and ``wrap``): ``[0, M]``;
      ``Htmp``: ``[0, M]`` after its clamp, ``[-max_abs, M + max_abs]``
      before;
    * ``H - rho`` (F's scratch, held in ``g``): ``[-rho, M]``;
    * F: seeded at ``-rho`` (row 0's update reaches it from any deeper
      seed, as H of row -1 is 0), so ``[-rho - sigma, M]``;
    * in-strip scan (``g``, ``spare``): ``[0, M + (W - 1) * sigma]``;
    * the carry cast into ``h_prev[0]``: an earlier strip's scan value
      decayed by whole strips, clipped from below at ``neg`` in int64
      before the cast, so ``[neg, M + (W - 1) * sigma]``;
    * the E candidate built in ``h_prev``: ``max(G[j - 1], carry) -
      (j - 1) * sigma`` in columns ``j >= 1`` (``[-(W - 2) * sigma,
      M + (W - 1) * sigma]``) and ``carry + sigma`` in column 0 (0 when
      every subject fits one strip), then minus ``rho``.  Its low
      extreme is ``neg + sigma - rho = -(M + 2 * rho + sigma * (m + 1))``
      in column 0, its high one ``M + W * sigma``.

    ``_working_dtype``'s ``bound = 2M + rho + sigma * (W + 2m + 4)``
    exceeds every magnitude but the column-0 E candidate's, which stays
    below ``bound + rho < 2 * bound``: inside the dtype, because each
    narrow rung keeps ``bound`` below half its range.

    Pad columns score 0 and need no mask.  They sit in each subject's
    final strip, after all its residues, and every DP term flows right
    or down, so no real cell of that subject reads one; the wrap reset
    at each subject's strip 0 and the segmented carry, clipped at
    ``neg``, keep them from every other subject's cells.  A pad cell
    thus only relays its own subject's values through steps that never
    add (a 0 similarity, a gap cost), so the running maximum over a
    subject's strips never exceeds its best real cell.

    The doubling scan runs only as deep as a gap can still score.  With
    ``hi`` the largest similarity (at least 0, the pads') and ``top``
    the exact maximum of ``best`` after some row ``r``, every H value
    up to row ``r`` is at most ``top`` (H's row maximum is Htmp's), and
    each later row raises the maximum by at most ``hi``: row ``r + k``'s
    Htmp is at most ``bound = top + k * hi``.  An E term opened ``d``
    columns back is at most ``bound - rho - (d - 1) * sigma``, which is
    ``<= 0 <= Htmp`` for every ``d > reach = ceil((bound - rho) /
    sigma)``.  A scan whose window ``2**s`` covers ``reach`` keeps every
    term with ``d <= 2**s`` and drops only such non-positive ones, so
    ``H = max(Htmp, E)`` is unchanged; when ``bound <= rho`` no step
    runs.  With carries, the truncated ``scan[-1]`` drops only terms at
    least ``2**s`` columns before the next strip, which are already
    ``<= 0`` there, and E built from it stays a maximum over a subset
    of the true terms that holds every positive one.  ``top`` is
    reduced exactly every :data:`_BOUND_EVERY` rows.

    **The int8 rung.**  A group whose rows hold at least
    :data:`_INT8_MIN_ROW_CELLS` cells starts below the ladder, in int8,
    when ``max_abs <= 127``, ``rho + sigma <= 127`` and ``4 * hi <=
    127`` (:func:`_enters_int8`), and stays there while every reduction
    finds ``top + 4 * hi <= 127`` (:func:`_int8_holds`).  int8 cannot
    hold the ramp ``j * sigma``, so these rows take no ramp: the int8
    tile adds straight onto the diagonal, the scan decays as it doubles
    (step ``k`` folds row ``j - k`` minus ``k * sigma``,
    :func:`_decaying_max`), and E at column ``j`` is ``scan[j - 1] -
    rho``.  With ``bound = top + (since + 1) * hi <= 127`` the row's
    bound, every int8 value stays in ``[-127, 127]``:

    * the tiles, ``[-max_abs, hi]``, and ``Htmp`` before its clamp, a
      tile plus an H of the row before (``[0, bound - hi]``), so
      ``[-max_abs, bound]``: its high side needs only ``hi``, its low
      side only ``max_abs <= 127``; H, ``Htmp``, ``best`` and ``wrap``,
      ``[0, bound]``;
    * ``H - rho``, ``[-rho, bound]``; F, ``[-rho - sigma, bound]``,
      and ``rho + sigma <= 127``;
    * the scan, ``[0, bound]``; its decayed operand
      ``scan - k * sigma`` runs only for ``k < reach`` (the last step
      halves a window that did not yet cover ``reach``), and ``(reach
      - 1) * sigma < bound - rho``, so it stays above ``rho - 127``;
    * E, ``[-rho, bound - rho]``;
    * the carry: the int64 segmented scan above, on boundary values
      lifted by ``(W - 1) * sigma`` to the ramped scan's, gives column
      0's opening value ``c = carry + sigma``, whose E term at column
      ``j`` is ``c - rho - j * sigma``.  ``c`` is clipped to ``[0,
      bound]`` before the cast (no true one exceeds the row's Htmp, and
      one at or below 0 loses to every Htmp), and folded into only the
      first ``reach`` rows, where ``rho + j * sigma < bound``, so the
      term stays in ``[-127, bound - rho]``.  Past ``reach`` it is
      ``<= 0``, as in the ramped scan.

    A reduction that finds the check failing promotes the group in
    place, once: the live state (H, F, ``best``, ``wrap``) is cast to
    the ladder rung, the int8 scratch is freed before the wider buffers
    (and the ramp) are allocated, and the remaining rows run the ramped
    path above.  Every value carried over is exact, so the promoted
    sweep scores exactly as if it had run in the ladder rung from row 0.
    """
    validate_penalties(gaps)
    m = profile.length
    n = group.size
    counts = strip_counts(group.lengths, w)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    strips = int(offsets[-1])
    #: Whether some subject spans several strips: only then do H and E
    #: cross strip boundaries (the wrap and the carry).
    carries = strips > n
    #: subject index and in-subject strip index of every strip lane.
    seq_of = np.repeat(np.arange(n, dtype=np.int64), counts)
    local = np.arange(strips, dtype=np.int64) - offsets[:-1][seq_of]
    first = local == 0  # strip 0 of each subject: no carry, no wrap

    rho, sigma = gaps.rho, gaps.sigma
    max_abs = _max_abs(profile)
    dtype = _working_dtype(m, w, max_abs, gaps)
    # The uint8 code tiling and np.take's intp index are freed here,
    # before the buffers are allocated.
    tiles, row_tile = _similarity_tiles(
        profile, group, _strip_tiles(group, w, counts),
        _tile_dtype(max_abs, dtype),
    )

    #: -inf stand-in for the missing carry: deep enough that m rows of
    #: sigma-decay still lose to any reachable value.
    neg64 = np.int64(-(m * max_abs + rho + sigma * (m + 2)))
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
        + np.int64(sigma) * (np.int64(strips) * w + w + 4)
        + np.int64(rho)
        - neg64
        + 1
    )
    seg_pen = big * seq_of

    #: The largest similarity any cell adds (pads add 0), and the exact
    #: maximum of best as of the last reduction: with the rows since,
    #: they bound this row's Htmp and so the scan's depth.
    hi = max(int(profile.scores.max()), 0)
    top = 0
    #: Whether the sweep is in the int8 rung, which it leaves at most
    #: once, for dtype; int8_rows counts the rows it swept there.
    narrow = _enters_int8(strips * w, hi, max_abs, gaps)
    int8_rows = 0
    rung = np.int8 if narrow else dtype

    # Row j of each (W, strips) buffer is in-strip column j of every
    # strip lane.  F starts at -rho, which row 0's update reaches from
    # any deeper seed (H of row -1 is 0).
    h_prev = np.zeros((w, strips), dtype=rung)  # H of row i-1, then row i
    f = np.full((w, strips), -rho, dtype=rung)  # F of row i-1, then row i
    best = np.zeros_like(h_prev)  # running elementwise maximum of Htmp
    wrap = np.zeros(strips, dtype=rung)  # diagonal of in-strip column 0
    htmp = np.empty_like(h_prev)  # max(0, F, H_diag + W): H before E
    g = np.empty_like(h_prev)  # in-strip scan buffer
    spare = np.empty_like(h_prev)  # the doubling scan's second buffer
    bshift = np.empty(strips, dtype=np.int64)
    key = np.empty(strips, dtype=np.int64)
    carry = np.empty(strips, dtype=np.int64)
    if narrow:
        rampw = None  # built on promotion
        #: rho + j * sigma down the rows where it fits int8: the decay
        #: of a carry's E term at in-strip column j (j < reach stays
        #: below the row's bound, so every folded row is here).
        fold = (
            rho + sigma * np.arange(
                min(w, (_INT8_MAX - rho) // sigma + 1), dtype=np.int64
            )
        ).astype(np.int8)[:, None]
        carry8 = np.empty(strips, dtype=np.int8)
        #: The carry's floor: an E opening value at or below 0 loses
        #: to every Htmp.
        floor8 = np.int64(0)
        #: The scan's boundary value at in-strip column W - 1 is the
        #: ramped scan's less (W - 1) * sigma.
        lift = off + np.int64(sigma) * (w - 1)
    else:
        rampw = _gap_ramp(w, strips, sigma, dtype)

    doubling = _takes_doubling(strips, dtype)
    scan_steps = 0
    for i, t in enumerate(row_tile.tolist()):
        since = i % _BOUND_EVERY
        if since == 0:
            top = int(best.max())
            if narrow and not _int8_holds(top, hi):
                # Promote in place: free the int8 scratch, widen the
                # live state to the ladder rung, and finish on the
                # ramped path.
                narrow, int8_rows = False, i
                del htmp, g, spare, scan, fold, carry8
                h_prev, f, best, wrap = (
                    x.astype(dtype) for x in (h_prev, f, best, wrap)
                )
                htmp = np.empty_like(h_prev)
                g = np.empty_like(h_prev)
                spare = np.empty_like(h_prev)
                rampw = _gap_ramp(w, strips, sigma, dtype)
        # Row i's Htmp is at most bound = top + (since + 1) * hi, so E
        # terms opened more than reach columns back are <= 0 <= Htmp.
        bound = top + (since + 1) * hi
        reach = -((rho - bound) // sigma)
        if doubling or narrow:
            scan_steps += _doubling_steps(reach, w)
        # F[i] = max(F[i-1] - sigma, H[i-1] - rho), elementwise per lane.
        # g is dead until the scan input overwrites all of it below, so
        # it doubles as the H - rho scratch.
        np.subtract(f, sigma, out=f)
        np.subtract(h_prev, rho, out=g)
        np.maximum(f, g, out=f)
        # Htmp = max(0, F, H[i-1][c-1] + W) — H with E not yet folded in.
        # The similarity of query row i against every strip column is
        # its symbol's tile.  In int8 it adds straight onto the
        # diagonal; a wider rung cast-copies it into Htmp first, since
        # adding an int8 tile to a wider row in one mixed-dtype ufunc
        # costs more than the copy and a same-dtype add.  The diagonal
        # is an in-strip shift, and in column 0 a wrap from the
        # previous strip's last column (zero at each subject's strip 0).
        if narrow:
            np.add(tiles[t, 1:], h_prev[:-1], out=htmp[1:])
            htmp[0] = tiles[t, 0]
        else:
            np.copyto(htmp, tiles[t])
            np.add(htmp[1:], h_prev[:-1], out=htmp[1:])
        if carries:
            wrap[1:] = h_prev[-1, :-1]
            wrap[first] = 0
            np.add(htmp[0], wrap, out=htmp[0])
        np.maximum(htmp, f, out=htmp)
        # The clamp at 0 reads a zeroed g (dead until the scan input
        # below): an integer maximum with a scalar operand misses
        # NumPy's SIMD loop and costs several times the same-shape one.
        g.fill(0)
        np.maximum(htmp, g, out=htmp)
        # The maximum of H equals the maximum of Htmp: E and the carries
        # only relay decayed Htmp values, so folding them in can never
        # raise it.  An elementwise running maximum, reduced once at the
        # end per strip and then per subject, is one contiguous pass; a
        # per-row reduction down axis 0 costs up to 12 ns a cell on a
        # narrow group.
        np.maximum(best, htmp, out=best)
        # In-strip prefix maximum, reach columns deep: in int8 the
        # decaying scan of Htmp, in a wider rung the plain scan of
        # Htmp + j*sigma.
        if narrow:
            scan = _decaying_max(htmp, g, spare, reach, sigma)
        else:
            np.add(htmp, rampw, out=g)
            scan = _prefix_max(g, spare, reach)
        if carries:
            # Cross-strip carry: exclusive segmented prefix maximum of
            # each strip's boundary value
            # B[s] = G[s, -1] + s_local * W * sigma, with G the ramped
            # scan.
            np.add(scan[-1, :-1], (lift if narrow else off)[:-1],
                   out=bshift[1:])
            bshift[0] = neg64
            bshift[first] = neg64
            np.add(bshift, seg_pen, out=key)
            np.maximum.accumulate(key, out=key)
            np.subtract(key, seg_pen, out=carry)
            np.subtract(carry, off, out=carry)  # into strip-local terms
        if narrow:
            # E at in-strip column j >= 1 is scan[j-1] - rho; column 0
            # has no in-strip term.
            np.subtract(scan[:-1], rho, out=h_prev[1:])
            h_prev[0] = 0
            if carries:
                # The carry's E term at column j is c - rho - j*sigma,
                # c = carry + sigma, positive only for j < reach: c is
                # clipped to [0, bound] as it is cast to int8, and
                # folded into those rows alone (g is dead once E is
                # built).
                np.add(carry, sigma, out=carry)
                np.clip(carry, floor8, bound, out=carry8, casting="unsafe")
                rows = min(reach, fold.shape[0])
                if rows > 0:
                    np.subtract(carry8, fold[:rows], out=g[:rows])
                    np.maximum(h_prev[:rows], g[:rows], out=h_prev[:rows])
        else:
            # E at in-strip column j is max(G[s, j-1], carry[s]) -
            # j*sigma - (rho - sigma), built in h_prev (fully consumed
            # above) as X[j] - rho with X[j] = max(G[j-1], carry) -
            # (j-1)*sigma.  Column 0 has no in-strip G: its only term is
            # the carry, which crosses the strip boundary (the "-1"
            # column).
            if carries:
                np.maximum(carry, neg64, out=carry)  # clip leaked/-inf
                np.copyto(h_prev[0], carry, casting="unsafe")
                np.maximum(scan[:-1], h_prev[0], out=h_prev[1:])
                np.subtract(h_prev[1:], rampw[:-1], out=h_prev[1:])
                np.add(h_prev[0], sigma, out=h_prev[0])
            else:
                # No carry: column 0 has no E candidate, and 0 - rho
                # loses to Htmp >= 0.
                np.subtract(scan[:-1], rampw[:-1], out=h_prev[1:])
                h_prev[0] = 0
            np.subtract(h_prev, rho, out=h_prev)
        # H row i = max(Htmp, E).
        np.maximum(h_prev, htmp, out=h_prev)
    if narrow:
        int8_rows = m

    instr = obs_current()
    if instr.enabled:
        charge(instr, m, group, w, strips, dtype, scan_steps, int8_rows)
    lane_best = best.max(axis=0).astype(np.int64)
    if carries:
        lane_best = np.maximum.reduceat(lane_best, offsets[:-1])
    return lane_best


def score_packed_group(
    profile: QueryProfile, group: PackedGroup, gaps: GapPenalty
) -> np.ndarray:
    """Optimal local-alignment score of the query against every lane.

    The sweep at ``W = max_len``, one strip per subject.  Returns an
    ``int64`` array of ``group.size`` scores, lane order.
    """
    return _sweep(profile, group, gaps, group.max_length, count_sweep_work)


def score_packed_group_strips(
    profile: QueryProfile,
    group: PackedGroup,
    gaps: GapPenalty,
    *,
    strip_width: int = DEFAULT_STRIP_WIDTH,
) -> np.ndarray:
    """Optimal local-alignment score of the query against every subject.

    The sweep at ``strip_width`` columns a strip, the strips kernel's
    :data:`~repro.engine.pack.DEFAULT_STRIP_WIDTH` unless a caller
    narrows it (tests do, to reach the cross-strip carry with short
    subjects).  Returns an ``int64`` array of ``group.size`` scores in
    lane order, bit-identical to :func:`score_packed_group`.
    """
    w = int(strip_width)
    if w <= 0:
        raise ValueError(f"strip width must be positive, got {w}")
    return _sweep(profile, group, gaps, w, count_strips_work)
