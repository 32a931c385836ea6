"""Striped (Farrar) lane sweep with a deconstructed lazy-F loop.

Where :mod:`repro.engine.lanes` vectorizes *across* database sequences
(one lane per sequence, one Python step per query row), this engine
also stripes *within* the query: each group is scored column-by-column
over the database, and every column advances all ``group.size *
seg_len * n_lanes`` striped query cells with a handful of vectorized
ops (see :class:`~repro.sequence.striped_profile.StripedProfile` for
the layout).  The per-column state arrays have shape ``(size, seg_len,
n_lanes)``; query position ``q = k * seg_len + i`` lives at ``[:, i,
k]``.

**The lazy-F deconstruction.**  Striping breaks the vertical
(query-direction) gap chain F at every lane boundary: extending a gap
from position ``k * seg_len - 1`` into ``k * seg_len`` crosses from row
``seg_len - 1`` of lane ``k - 1`` into row ``0`` of lane ``k``.
Farrar's original formulation speculatively assumes the wrap
contributes nothing and, when it does not hold, re-runs correction
passes until quiescence — worst case a full re-scan per lane.
Following Snytsar's de(con)struction, this sweep takes the lazy loop
apart into its closed form instead: open F from the current column's H
everywhere and extend it down the stripe rows once; then observe that
a gap chain crossing from lane ``j``'s bottom row to lane ``k``'s
bottom row decays by exactly ``(k - j) * seg_len * sigma``, so the
entire inter-lane fixpoint is a *prefix maximum over the bottom row
plus a linear ramp* — one ``np.maximum.accumulate`` yields every
lane's exact wrap carry simultaneously.  If no carry beats what a lane
already holds (the early-exit predicate, true for most columns), F is
finished; otherwise a **single** corrective fold-and-extend completes
it — the correction is bounded at one round by construction, never a
re-scan.  ``engine.striped.lazy_f_iterations`` counts the columns that
needed the corrective round; columns whose F is identically zero skip
the machinery entirely (``engine.striped.f_columns_skipped``).

**Score tiers.**  The first pass runs in saturating ``uint8``
arithmetic on the biased profile (the SSW library's trick): H is
clipped at ``cap8`` each column, which keeps every addition provably
wrap-free and makes saturation detectable — until a lane's true score
first reaches ``cap8``, its clipped sweep is *exact*, so ``clipped ==
cap8  <=>  true >= cap8``.  Saturated lanes are re-swept in ``int16``
(``engine.striped.overflow_reruns``/``saturated_lanes``), and lanes
past even ``cap16`` fall back to the exact (non-saturating) Gotoh sweep of
:func:`~repro.engine.lanes.score_packed_group` — scores are therefore
bit-identical to :func:`~repro.sw.scalar.sw_score_scalar` on every
lane, no matter how large they grow.

Gap arithmetic uses the same scan identity as the row sweep: because
:class:`~repro.alphabet.gaps.GapPenalty` enforces ``sigma <= rho``,
F never profits from opening out of an F-derived H, so E is folded
into H *before* F opens from it and the F chain closes over
max/saturating-subtract alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.alphabet import GapPenalty
from repro.engine.lanes import score_packed_group
from repro.engine.pack import PackedGroup
from repro.obs import AnyInstrumentation, current as obs_current
from repro.sequence.striped_profile import StripedProfile
from repro.sw.utils import validate_penalties

__all__ = ["score_packed_group_striped"]


@dataclass
class _SweepStats:
    """Data-dependent (non-deterministic from geometry) sweep counts."""

    lazy_f_iterations: int = 0
    f_columns_skipped: int = 0

    def merge(self, other: _SweepStats) -> None:
        self.lazy_f_iterations += other.lazy_f_iterations
        self.f_columns_skipped += other.f_columns_skipped


def _lazy_f_sweep(
    codes: np.ndarray,
    prof: np.ndarray,
    gaps: GapPenalty,
    bias: int,
    cap: int,
) -> tuple[np.ndarray, _SweepStats]:
    """One saturating striped sweep of ``codes`` lanes against ``prof``.

    ``prof`` is a ``(alphabet + 1, seg_len, n_lanes)`` tier of a
    :class:`StripedProfile` (``uint8`` biased by ``bias``, or ``int16``
    with ``bias == 0``); ``cap`` is the tier's saturation cap.  Returns
    the per-lane maxima clipped at ``cap`` (``== cap`` means the lane
    saturated and its true score is ``>= cap``) plus the data-dependent
    sweep stats.
    """
    size, n_cols = codes.shape
    t, v = prof.shape[1], prof.shape[2]
    dtype = prof.dtype
    limit = int(np.iinfo(dtype).max)
    shape = (size, t, v)
    # Penalties clamped into the dtype: every swept value is <= limit,
    # so a saturating subtract by min(penalty, limit) is exact.  Every
    # constant operand is pre-materialized at operand shape — NumPy's
    # same-shape ufunc loops run several times faster than its
    # scalar/broadcast paths at these array sizes, and the inner loop
    # is dispatch-bound.
    rho_c = np.full(shape, min(gaps.rho, limit), dtype=dtype)
    sigma_c = np.full(shape, min(gaps.sigma, limit), dtype=dtype)
    sigma_row = np.ascontiguousarray(sigma_c[:, 0, :])
    cap_c = np.full(shape, cap, dtype=dtype)
    bias_c = np.full(shape, bias, dtype=dtype) if bias else None

    h = np.zeros(shape, dtype=dtype)
    hbuf = np.zeros(shape, dtype=dtype)
    e = np.zeros(shape, dtype=dtype)
    f = np.zeros(shape, dtype=dtype)
    ftmp = np.empty(shape, dtype=dtype)
    best = np.zeros(shape, dtype=dtype)
    sub = np.empty(shape, dtype=dtype)
    tmpv = np.empty((size, v), dtype=dtype)
    cols = np.ascontiguousarray(codes.T)  # column-contiguous fetches
    # Cross-lane wrap scan state (int64: the ramp can exceed any narrow
    # dtype for adversarial penalties).  A vertical gap crossing from
    # lane j's bottom row to lane k's bottom row decays by exactly
    # (k - j) * seg_len * sigma, so the inter-lane F fixpoint is a
    # prefix maximum of boundary + ramp — the same scan identity the
    # row engine uses for E.
    scan = np.empty((size, v), dtype=np.int64)
    lane_decay = int(gaps.sigma) * t
    ramp_c = np.empty((size, v), dtype=np.int64)
    ramp_c[:] = lane_decay * np.arange(v, dtype=np.int64)
    carry_c = ramp_c[:, : max(v - 1, 0)] + int(gaps.sigma)
    zero_cut = np.zeros((size, max(v - 1, 0)), dtype=np.int64)
    gt = np.empty((size, max(v - 1, 0)), dtype=bool)
    stats = _SweepStats()

    def extend_f_down_rows() -> None:
        # f[i] = max(f[i], f[i-1] - sigma), saturating at 0: the
        # vertical gap-extension chain inside each lane.
        for i in range(1, t):
            np.maximum(f[:, i - 1, :], sigma_row, out=tmpv)
            np.subtract(tmpv, sigma_row, out=tmpv)
            np.maximum(f[:, i, :], tmpv, out=f[:, i, :])

    for j in range(n_cols):
        np.take(prof, cols[j], axis=0, out=sub, mode="clip")
        # Diagonal candidate: H[q-1] of the previous column, shifted one
        # striped position down (row 0 wraps from the previous lane's
        # last row), plus the profile byte.
        hbuf[:, 1:, :] = h[:, : t - 1, :]
        hbuf[:, 0, 1:] = h[:, t - 1, :-1]
        hbuf[:, 0, 0] = 0
        np.add(hbuf, sub, out=hbuf)
        # Htmp = max(H_diag + W, 0) in the true domain: clamp at the
        # bias, then strip it (a saturating subtract at zero).
        if bias_c is not None:
            np.maximum(hbuf, bias_c, out=hbuf)
            np.subtract(hbuf, bias_c, out=hbuf)
        # Fold E before opening F: an E-derived H legitimately opens a
        # vertical gap, while an F-derived one never does (sigma <= rho
        # makes extending the existing gap at least as good).
        np.maximum(hbuf, e, out=hbuf)
        # Open F from this column's H: saturating-subtract rho at full
        # shape, then shift one striped position down (row 0 wraps from
        # the previous lane's last row).
        np.maximum(hbuf, rho_c, out=ftmp)
        np.subtract(ftmp, rho_c, out=ftmp)
        f[:, 1:, :] = ftmp[:, : t - 1, :]
        f[:, 0, 1:] = ftmp[:, t - 1, :-1]
        f[:, 0, 0] = 0
        if bool(f.any()):
            extend_f_down_rows()
            if v > 1 and bool(f[:, t - 1, :].any()):
                # Resolve the lane wrap in closed form: one prefix-max
                # scan over the stripe's bottom row gives every lane's
                # exact inter-lane carry, so at most ONE corrective
                # re-propagation is ever needed (Farrar's worst case
                # re-scans the whole stripe per lane).
                np.copyto(scan, f[:, t - 1, :], casting="unsafe")
                np.add(scan, ramp_c, out=scan)
                np.maximum.accumulate(scan, axis=1, out=scan)
                carry = tmpv[:, 1:]
                np.subtract(scan[:, :-1], carry_c, out=scan[:, :-1])
                np.maximum(scan[:, :-1], zero_cut, out=scan[:, :-1])
                np.copyto(carry, scan[:, :-1], casting="unsafe")
                np.greater(carry, f[:, 0, 1:], out=gt)
                if bool(gt.any()):
                    # Early-exit predicate failed: some lane's row 0
                    # really is fed by an upstream gap — fold the
                    # carries and extend them down the rows once.
                    stats.lazy_f_iterations += 1
                    np.maximum(f[:, 0, 1:], carry, out=f[:, 0, 1:])
                    extend_f_down_rows()
            np.maximum(hbuf, f, out=hbuf)
        else:
            stats.f_columns_skipped += 1
        # Clip at the tier cap: keeps the next column's profile addition
        # provably wrap-free and makes saturation detectable (a clipped
        # score == cap iff the true score >= cap).
        np.minimum(hbuf, cap_c, out=hbuf)
        np.maximum(best, hbuf, out=best)
        # E for the next column: max(E - sigma, H - rho), floored at 0
        # (ftmp is dead until the next column and serves as scratch).
        np.maximum(e, sigma_c, out=e)
        np.subtract(e, sigma_c, out=e)
        np.maximum(hbuf, rho_c, out=ftmp)
        np.subtract(ftmp, rho_c, out=ftmp)
        np.maximum(e, ftmp, out=e)
        h, hbuf = hbuf, h

    return best.max(axis=(1, 2)), stats


def _subset_group(group: PackedGroup, rows: np.ndarray) -> PackedGroup:
    """A :class:`PackedGroup` of just ``rows``, trimmed to their own
    maximum length (re-run tiers touch only the saturated lanes)."""
    lengths = group.lengths[rows]
    width = int(lengths.max())
    codes = np.ascontiguousarray(group.codes[rows, :width])
    codes.setflags(write=False)
    return PackedGroup(group.indices[rows], lengths, codes, group.pad_code)


def score_packed_group_striped(
    profile: StripedProfile, group: PackedGroup, gaps: GapPenalty
) -> np.ndarray:
    """Optimal local-alignment score of the query against every lane.

    Runs the saturating ``uint8`` tier, re-sweeps saturated lanes in
    ``int16``, and falls back to the exact Gotoh row sweep for lanes
    past even the ``int16`` cap (or for matrices no narrow tier
    supports).  Returns an ``int64`` array of ``group.size`` scores in
    lane order, bit-identical to
    :func:`~repro.engine.lanes.score_packed_group`.
    """
    validate_penalties(gaps)
    if group.pad_code != profile.matrix.alphabet.size:
        raise ValueError(
            f"pad code must be the alphabet-size sentinel "
            f"{profile.matrix.alphabet.size}, got {group.pad_code}"
        )
    instr = obs_current()
    scores = np.zeros(group.size, dtype=np.int64)
    stats = _SweepStats()
    remaining = np.arange(group.size, dtype=np.intp)

    prof8 = profile.profile8
    if prof8 is not None:
        lane8, tier_stats = _lazy_f_sweep(
            group.codes, prof8, gaps, profile.bias, profile.cap8
        )
        stats.merge(tier_stats)
        scores[:] = lane8.astype(np.int64)
        remaining = np.flatnonzero(lane8 >= profile.cap8)

    prof16 = profile.profile16
    if remaining.size and prof16 is not None:
        rerun = _subset_group(group, remaining)
        lane16, tier_stats = _lazy_f_sweep(
            rerun.codes, prof16, gaps, 0, profile.cap16
        )
        stats.merge(tier_stats)
        scores[remaining] = lane16.astype(np.int64)
        remaining = remaining[lane16 >= profile.cap16]

    if remaining.size:
        # Exact fallback: lanes past the int16 cap, or every lane when
        # the matrix fits no narrow tier.  (Charges its own
        # engine.sweep.* work when instrumentation is live.)
        exact = _subset_group(group, remaining)
        scores[remaining] = score_packed_group(profile.base, exact, gaps)

    if instr.enabled:
        if stats.lazy_f_iterations:
            instr.count(
                "engine.striped.lazy_f_iterations", stats.lazy_f_iterations
            )
        if stats.f_columns_skipped:
            instr.count(
                "engine.striped.f_columns_skipped", stats.f_columns_skipped
            )
        instr.observe(
            "engine.striped.lazy_f_rounds", float(stats.lazy_f_iterations)
        )
        _count_striped_work(instr, profile, group, scores)
    return scores


def _count_striped_work(
    instr: AnyInstrumentation,
    profile: StripedProfile,
    group: PackedGroup,
    lane_scores: np.ndarray,
) -> None:
    """Charge one striped group's deterministic work counters.

    Every count is a function of the profile geometry, the group
    geometry and the *final exact* lane scores: a lane's clipped sweep
    is exact until the moment it saturates, so ``score >= cap`` decides
    "this tier saturated and the next tier ran" identically to the
    sweep's own detection.  Pool-scored groups run this same charge
    *worker-side* and ship the registries back as telemetry (see
    ``repro.engine.executor``), so pooled totals stay bit-identical to
    the serial path; ``engine.striped.lazy_f_iterations`` /
    ``f_columns_skipped`` are data-dependent and counted inside the
    sweep itself.
    """
    instr.count("engine.striped.groups", 1)
    saturated = np.ones(group.size, dtype=bool)
    ran_prior = False
    if profile.profile8 is not None:
        instr.count("engine.striped.stripes", profile.seg_len)
        instr.count("engine.striped.columns", group.max_length)
        saturated = lane_scores >= profile.cap8
        instr.count("engine.striped.saturated_lanes", int(saturated.sum()))
        ran_prior = True
    if bool(saturated.any()) and profile.profile16 is not None:
        if ran_prior:
            instr.count("engine.striped.overflow_reruns", 1)
        instr.count("engine.striped.stripes", profile.seg_len)
        instr.count(
            "engine.striped.columns", int(group.lengths[saturated].max())
        )
        past16 = saturated & (lane_scores >= profile.cap16)
        if not ran_prior:
            instr.count("engine.striped.saturated_lanes", int(past16.sum()))
        saturated = past16
        ran_prior = True
    if bool(saturated.any()):
        if ran_prior:
            instr.count("engine.striped.overflow_reruns", 1)
        instr.count("engine.striped.exact_rerun_lanes", int(saturated.sum()))
