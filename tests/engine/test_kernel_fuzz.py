"""Any lane kernel on any packed group scores like the scalar DP.

The planner stamps each group with whichever kernel its cost model
prices lowest, so every kernel must be exact on every group shape, not
only on the groups it used to get.  These properties draw random
matrices (all-negative ones included), penalties up to the ``2**20``
validation cap and lengths on either side of the strip width, then
compare against :func:`~repro.sw.scalar.sw_score_scalar`:

* the striped kernel across its score tiers (saturating ``uint8``, the
  ``int16`` re-run, the exact fallback) and stripe geometries, where the
  lazy-F wrap carries vertical gaps across lanes;
* every kernel forced onto every group of a planned database, with
  group sizes on both sides of the row and strip sweeps' scan rule,
  buffer lengths around powers of two, and queries of one symbol or of
  every symbol (one similarity tile, or one per alphabet symbol);
* the packed engine end to end, from a database or a ``.rdb`` store,
  at the split and kernels its own planner picks, with subjects either
  side of one and two strip widths in strips groups.
"""

import tempfile
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.alphabet import BLOSUM62, PROTEIN, GapPenalty, SubstitutionMatrix
from repro.engine import (
    LANE_KERNELS,
    BatchedEngine,
    SearchConfig,
    build_store,
    open_database,
    pack_plan,
    score_packed_group_striped,
)
from repro.engine.kernels import plan_groups
from repro.engine.lanes import _takes_doubling, _tile_dtype, _working_dtype
from repro.engine.pack import DEFAULT_STRIP_WIDTH, pack_group, strip_counts
from repro.sequence import Database, Sequence, StripedProfile
from repro.sw import sw_score_scalar

#: The penalty validation cap.
GAP_CAP = 2**20


def _matrix(rng, scale, all_negative):
    """A symmetric random matrix with entries in ``[-scale, scale]``
    (``[-scale, 0]`` when all-negative)."""
    n = PROTEIN.size
    high = 1 if all_negative else scale + 1
    upper = np.triu(rng.integers(-scale, high, size=(n, n)))
    return SubstitutionMatrix("random", PROTEIN, upper + np.triu(upper, 1).T)


@st.composite
def queries(draw, rng, m):
    """A random ``m``-residue query, one symbol ``m`` times, or a
    permutation of every alphabet symbol repeated to at least ``m``."""
    kind = draw(st.sampled_from(["random", "one symbol", "every symbol"]))
    event(f"{kind} query")
    if kind == "random":
        return Sequence.random("q", m, rng)
    if kind == "one symbol":
        symbol = draw(st.integers(0, PROTEIN.size - 1))
        return Sequence("q", np.full(m, symbol, dtype=np.uint8))
    every = rng.permutation(PROTEIN.size).astype(np.uint8)
    return Sequence("q", np.resize(every, max(m, PROTEIN.size)))


@st.composite
def gap_penalties(draw):
    sigma = draw(st.one_of(st.integers(1, 8), st.integers(1, GAP_CAP)))
    rho = draw(st.one_of(
        st.integers(sigma, min(sigma + 16, GAP_CAP)),
        st.integers(sigma, GAP_CAP),
    ))
    return GapPenalty(rho, sigma)


@st.composite
def striped_cases(draw):
    """A query, subjects, a matrix whose scale picks the score tiers,
    penalties and a stripe width."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Up to 127 the uint8 tier exists, and from ~30 its cap is low
    # enough to saturate; up to 2**14 only int16 and, past its cap,
    # the exact fallback; past 2**15 only the exact fallback.
    scale = draw(st.one_of(
        st.integers(1, 8), st.integers(30, 127),
        st.integers(128, 2**14), st.integers(2**13, 2**14), st.just(2**16),
    ))
    matrix = _matrix(rng, scale, draw(st.booleans()))
    # Few target lanes give several stripe rows even for a short
    # query, so vertical gaps wrap from lane to lane.
    target_lanes = draw(st.sampled_from([1, 2, 3, 5, 64]))
    m = draw(st.integers(1, 30))
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=5))
    query = Sequence.random("q", m, rng)
    subjects = [
        Sequence.random(f"d{i}", n, rng) for i, n in enumerate(lengths)
    ]
    return query, subjects, matrix, draw(gap_penalties()), target_lanes


class TestStripedAgainstScalar:
    @settings(max_examples=120, deadline=None)
    @given(case=striped_cases())
    def test_every_tier_and_wrap_matches_scalar(self, case):
        query, subjects, matrix, gaps, target_lanes = case
        profile = StripedProfile(
            query.codes, matrix, target_lanes=target_lanes
        )
        db = Database.from_sequences(subjects)
        group = pack_group(db, np.arange(len(db)), lane_engine="striped")
        scores = score_packed_group_striped(profile, group, gaps)
        expected = [sw_score_scalar(query, d, matrix, gaps) for d in subjects]
        assert scores.tolist() == expected
        if profile.profile8 is None:
            event("no uint8 tier")
        elif max(expected) >= profile.cap8:
            event("uint8 tier saturated")
        if profile.profile16 is not None and max(expected) >= profile.cap16:
            event("int16 tier saturated: exact fallback")
        if profile.seg_len > 1:
            event("several stripe rows")


#: Lengths that put the row sweep's ``(L + 1)``-row buffers and the
#: strip width at ``2**k - 1``, ``2**k`` and ``2**k + 1``: the edges of
#: the doubling scan's ``log2`` steps.
AROUND_POWERS = sorted(
    {2**k + d for k in range(1, 6) for d in (-2, -1, 0, 1)} - {0}
)

#: Group sizes on both sides of the scan rule
#: (``repro.engine.lanes._takes_doubling``) in the int16 and int32
#: rungs, and wide int64 groups, which always accumulate.
SCAN_RULE_LANES = [15, 16, 17, 31, 32, 33, 63, 64, 65]


@st.composite
def planned_databases(draw):
    """A query, a database with lengths around the strip width and
    powers of two, a matrix, penalties, a group size, a split
    threshold and a strip width."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    query = draw(queries(rng, draw(st.integers(1, 24))))
    # 2**30 // m carries the sweeps' similarity bound past int32, while
    # every score still fits the scalar reference's int32 tables.  An
    # every-symbol query is longer than the drawn length, so ``m`` is
    # the query's own.
    m = len(query)
    scale = draw(st.one_of(
        st.integers(1, 16), st.integers(17, 2**12), st.just(2**30 // m)
    ))
    matrix = _matrix(rng, scale, draw(st.booleans()))
    w = draw(st.one_of(
        st.integers(2, 12), st.sampled_from([k for k in AROUND_POWERS if k > 1])
    ))
    around_strip = st.sampled_from([1, w - 1, w, w + 1, 2 * w, 2 * w + 1])
    # Wide databases give groups on the doubling side of the scan rule.
    wide = draw(st.booleans())
    size = draw(st.integers(15, 70) if wide else st.integers(1, 10))
    lengths = draw(st.lists(
        st.one_of(
            st.integers(1, 40), around_strip, st.sampled_from(AROUND_POWERS),
            st.just(1),
        ),
        min_size=size, max_size=size,
    ))
    db = Database.from_sequences(
        [Sequence.random(f"d{i}", n, rng) for i, n in enumerate(lengths)]
    )
    # One-lane groups sweep a single subject, often of one residue.
    group_size = draw(
        st.sampled_from([1, *SCAN_RULE_LANES]) if wide else st.integers(1, 5)
    )
    threshold = draw(st.one_of(st.none(), st.integers(0, 2 * w + 2)))
    return query, db, matrix, draw(gap_penalties()), group_size, threshold, w


def _sweep_events(kernel, dtype, lanes, max_abs):
    """Label which side of the scan rule a row or strip sweep took, and
    its similarity tiles' dtype."""
    side = (
        "doubling" if _takes_doubling(lanes, dtype) else "accumulate"
    )
    event(f"{kernel} {np.dtype(dtype).name} {side} scan")
    tile = np.dtype(_tile_dtype(max_abs, dtype)).name
    event(f"{kernel} {tile} tiles")


class TestForcedKernelsAgainstScalar:
    @settings(max_examples=60, deadline=None)
    @given(case=planned_databases())
    def test_each_kernel_on_every_group_matches_scalar(self, case):
        query, db, matrix, gaps, group_size, threshold, w = case
        expected = [sw_score_scalar(query, d, matrix, gaps) for d in db]
        order = np.argsort(db.lengths, kind="stable")
        planned = pack_plan(
            db, order,
            *plan_groups(db.lengths[order], len(query), group_size, threshold),
        )
        max_abs = max(int(np.abs(matrix.scores[:, query.codes]).max()), 1)
        for name, kernel in LANE_KERNELS.items():
            profile = kernel.profile(query.codes, matrix)
            # The strips kernel sweeps at the drawn width, so short
            # subjects reach its cross-strip carry.
            score = (
                partial(kernel.score, strip_width=w)
                if name == "strips"
                else kernel.score
            )
            scores = np.full(len(db), -1, dtype=np.int64)
            for group in planned:
                forced = replace(group, lane_engine=name)
                scores[group.indices] = score(profile, forced, gaps)
                if name == "gotoh":
                    _sweep_events(name, _working_dtype(
                        len(query), group.max_length, max_abs, gaps
                    ), group.size, max_abs)
                elif name == "strips":
                    strips = int(strip_counts(group.lengths, w).sum())
                    _sweep_events(
                        name, _working_dtype(len(query), w, max_abs, gaps),
                        strips, max_abs,
                    )
                    branch = "one-strip" if strips == group.size else "carry"
                    event(f"strips {branch} branch")
            assert scores.tolist() == expected, name


#: Subject lengths either side of one and two strip widths.
AROUND_STRIP_WIDTH = [
    k * DEFAULT_STRIP_WIDTH + d for k in (1, 2) for d in (-1, 0, 1)
]


@st.composite
def packed_searches(draw):
    """A query, a database, a matrix, penalties, a group size and a
    split for one packed-engine search."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    group_size = draw(st.integers(1, 8))
    # Subjects of one residue and one either side of the group size.
    lengths = draw(st.lists(
        st.one_of(
            st.just(1),
            st.sampled_from(
                sorted({group_size - 1, group_size, group_size + 1} - {0})
            ),
            st.integers(1, 30),
        ),
        min_size=1, max_size=12,
    ))
    longest = max(lengths)
    # Subjects around the strip width, with the split pinned below them
    # so the planner sends them to strips groups: one strip each up to
    # the width, the cross-strip carry past it.  Their query stays short
    # to keep the scalar reference fast.
    around_strip = draw(st.one_of(
        st.just([]),
        st.lists(st.sampled_from(AROUND_STRIP_WIDTH), min_size=1, max_size=2),
    ))
    # A query much longer than the subjects makes the planner pick
    # striped bulk groups, a short one gotoh.
    m = draw(st.integers(1, 48 if around_strip else 4 * longest))
    matrix = draw(st.one_of(
        st.just(BLOSUM62),
        st.integers(1, 2**12).map(lambda k: _matrix(rng, k, True)),
    ))
    splits = [st.just(0), st.sampled_from(lengths), st.just(longest + 1)]
    if not around_strip:
        splits.append(st.just("auto"))
    threshold = draw(st.one_of(*splits))
    query = draw(queries(rng, m))
    db = Database.from_sequences(
        [Sequence.random(f"d{i}", n, rng)
         for i, n in enumerate(lengths + around_strip)]
    )
    return query, db, matrix, draw(gap_penalties()), group_size, threshold


class TestPackedEngineAgainstScalar:
    @settings(max_examples=100, deadline=None)
    @given(case=packed_searches(), from_store=st.booleans())
    def test_search_matches_scalar(self, case, from_store):
        query, db, matrix, gaps, group_size, threshold = case
        expected = [sw_score_scalar(query, d, matrix, gaps) for d in db]
        engine = BatchedEngine(
            matrix, gaps,
            SearchConfig(group_size=group_size, split_threshold=threshold),
        )
        with tempfile.TemporaryDirectory() as tmp:
            source = db
            if from_store:
                path = Path(tmp) / "db.rdb"
                build_store(db, path, group_size=group_size)
                source = open_database(path, verify="deep")
            scores, report = engine.search(query, source)
            del source
        assert scores.tolist() == expected
        event("kernels: " + "+".join(sorted(set(report.lane_engines))))
        event("from a store" if from_store else "from a database")
        for kernel, width in zip(
            report.lane_engines, report.group_max_lengths
        ):
            if kernel == "strips" and width >= DEFAULT_STRIP_WIDTH - 1:
                carry = width > DEFAULT_STRIP_WIDTH
                event(
                    f"strips {'carry' if carry else 'one-strip'} group "
                    "around the strip width"
                )
