"""Score-dtype stability: every working-dtype rung scores exactly.

The paper's kernels keep scores in registers wide enough for the worst
case; a narrow accumulator silently wraps on long high-identity
alignments.  These tests pin the row and strip sweeps' dtype ladder
(`_working_dtype`: int16, int32, int64) at its rung boundaries, prove
end to end that a score which cannot fit in int16 comes back exact, and
compare both sweeps against the scalar reference over random matrices,
penalties and lengths on either side of the int16 bound and the strip
width, with lane counts on both sides of the prefix scan's rule.  They
also check that the sweeps' working buffers stay in the rung they were
allocated in: a stray wide operand would widen a buffer without
changing any score.
"""

import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.alphabet import BLOSUM62, PROTEIN, GapPenalty, SubstitutionMatrix
from repro.engine import BatchedEngine, SearchConfig
from repro.engine.lanes import (
    _INT8_MIN_ROW_CELLS,
    _sweep,
    _takes_doubling,
    _working_dtype,
    score_packed_group,
    score_packed_group_strips,
)
from repro.engine.pack import pack_group
from repro.engine.striped import _lazy_f_sweep
from repro.sequence import Database, QueryProfile, Sequence, StripedProfile
from repro.sw import sw_score_scalar
from repro.sw.antidiagonal import sw_score_antidiagonal

GP = GapPenalty.cudasw_default()

#: BLOSUM62 W/W similarity — the matrix's largest diagonal entry.
W_SELF = 11

INT16_MAX = 2**15 - 1


def _gaps_at_bound(m, L, max_abs, bound):
    """Penalties (sigma = 1) that put `_working_dtype`'s worst-case
    magnitude, ``2*m*max_abs + rho + sigma*(L + 2m + 4)``, exactly at
    ``bound``."""
    return GapPenalty(rho=bound - (2 * m * max_abs + L + 2 * m + 4), sigma=1)


def _matrix_scale(m, bound):
    """BLOSUM62 multiplier that lets an ``m``-row query reach ``bound``
    with a gap-open penalty under the ``2**20`` cap."""
    return max(1, (bound - 2**19) // (2 * m * W_SELF))


#: The worst-case bound on each side of each rung boundary, and the
#: rung it selects.
RUNG_BOUNDARIES = [
    (2**14 - 1, np.int16),
    (2**14, np.int32),
    (2**30 - 1, np.int32),
    (2**30, np.int64),
]


class TestWorkingDtype:
    @pytest.mark.parametrize("bound, expected", RUNG_BOUNDARIES)
    def test_rung_boundaries(self, bound, expected):
        m, L = 30, 40
        max_abs = W_SELF * _matrix_scale(m, bound)
        gaps = _gaps_at_bound(m, L, max_abs, bound)
        assert _working_dtype(m, L, max_abs, gaps) is expected

    def test_ordinary_protein_search_runs_int16(self):
        # A 300-aa query against a 1,000-aa subject under BLOSUM62 and
        # the default penalties: the bulk of a Swiss-Prot search.
        assert _working_dtype(300, 1000, W_SELF, GP) is np.int16

    def test_overflowing_int16_geometry_selects_int32(self):
        # 3200 residues of W against itself: true score 35200 > int16.
        dtype = _working_dtype(3200, 3200, W_SELF, GP)
        assert dtype is np.int32

    def test_adversarial_penalties_select_int64(self):
        # Penalties near the validation cap blow the int32 bound.
        huge = GapPenalty(rho=2**20, sigma=2**20)
        assert _working_dtype(3200, 3200, W_SELF, huge) is np.int64


class TestOverflowEquivalence:
    @pytest.fixture(scope="class")
    def poly_w(self):
        # Long perfect self-match whose score provably exceeds int16:
        # 3200 * 11 = 35200.
        return "W" * 3200

    def test_score_exceeds_int16_and_matches_closed_form(self, poly_w):
        query = Sequence.from_text("q", poly_w)
        db = Database.from_sequences([Sequence.from_text("d", poly_w)])
        engine = BatchedEngine(BLOSUM62, GP)
        scores, _ = engine.search(query, db)
        expected = len(poly_w) * W_SELF
        assert expected > INT16_MAX  # the test is vacuous otherwise
        assert scores.dtype == np.int64
        assert int(scores[0]) == expected

    def test_matches_antidiagonal_aligner_past_int16(self, poly_w):
        # Independent implementation, same pair: any wraparound in the
        # sweep's working buffers would break this equality.
        query = Sequence.from_text("q", poly_w)
        dseq = Sequence.from_text("d", poly_w)
        db = Database.from_sequences([dseq])
        engine = BatchedEngine(BLOSUM62, GP)
        scores, _ = engine.search(query, db)
        reference = sw_score_antidiagonal(query, dseq, BLOSUM62, GP)
        assert reference > INT16_MAX
        assert int(scores[0]) == reference

    def test_mixed_group_keeps_short_lanes_exact(self, poly_w):
        # The overflowing lane shares a group with ordinary sequences;
        # widening must not disturb their scores.
        rng = np.random.default_rng(7)
        query = Sequence.from_text("q", poly_w)
        short = Sequence.random("s", 40, rng)
        db = Database.from_sequences(
            [Sequence.from_text("d", poly_w), short]
        )
        engine = BatchedEngine(BLOSUM62, GP, SearchConfig(group_size=2))
        scores, _ = engine.search(query, db)
        assert int(scores[0]) == len(poly_w) * W_SELF
        assert int(scores[1]) == sw_score_antidiagonal(
            query, short, BLOSUM62, GP
        )


def _group(subjects, lane_engine="gotoh"):
    db = Database.from_sequences(subjects)
    return pack_group(db, np.arange(len(subjects)), lane_engine=lane_engine)


def _assert_sweeps_match_scalar(query, subjects, matrix, gaps, strip_width):
    """Both sweeps score every subject exactly like the scalar DP."""
    profile = QueryProfile(query.codes, matrix)
    expected = [sw_score_scalar(query, d, matrix, gaps) for d in subjects]
    rows = score_packed_group(profile, _group(subjects), gaps)
    strips = score_packed_group_strips(
        profile, _group(subjects, "strips"), gaps, strip_width=strip_width
    )
    assert rows.tolist() == expected
    assert strips.tolist() == expected


def _locals_at_return(fn, *args, frame_of=None):
    """Call ``fn(*args)``; return its result and the locals of the frame
    of ``frame_of`` (default ``fn``) as it returns."""
    seen = {}
    code = (frame_of or fn).__code__

    def trace_calls(frame, event, arg):
        if frame.f_code is not code:
            return None

        def trace_lines(frame, event, arg):
            if event == "return":
                seen.update(frame.f_locals)
            return trace_lines

        return trace_lines

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, seen


def _buffer_dtypes(frame, ndim):
    """Dtypes of the integer ``ndim``-D arrays in ``frame``."""
    return {
        name: value.dtype
        for name, value in frame.items()
        if isinstance(value, np.ndarray)
        and value.ndim == ndim
        and value.dtype.kind in "iu"
    }


class TestMostlyPaddedGroups:
    """Pads score 0, above every similarity of an all-negative matrix,
    and are not masked out of the running maximum: groups that are
    mostly padding still score exactly, whether or not H and E cross
    strip boundaries."""

    WIDTH = 40

    @pytest.mark.parametrize(
        "lengths",
        [[1, WIDTH], [WIDTH, 1, 1, WIDTH], [1] * 5 + [WIDTH]],
        ids=["one-and-W", "interleaved", "mostly-ones"],
    )
    @pytest.mark.parametrize(
        "offset", [0, -12], ids=["blosum62", "all-negative"]
    )
    def test_scores_exactly(self, lengths, offset):
        rng = np.random.default_rng(13)
        query = Sequence.random("q", 30, rng)
        # The long subjects repeat the query, so a value leaking from
        # their pads into a one-residue neighbour would show.
        subjects = [
            Sequence(f"d{i}", np.resize(query.codes, n))
            if n == self.WIDTH
            else Sequence.random(f"d{i}", n, rng)
            for i, n in enumerate(lengths)
        ]
        matrix = SubstitutionMatrix(
            "BLOSUM62 + offset", PROTEIN, BLOSUM62.scores + offset
        )
        profile = QueryProfile(query.codes, matrix)
        expected = [sw_score_scalar(query, d, matrix, GP) for d in subjects]
        # One strip per subject: W - 1 pads beside each residue.
        assert score_packed_group(
            profile, _group(subjects), GP
        ).tolist() == expected
        # At W every subject fits one strip; at 7 the long ones span
        # six, the last with two pad columns.
        for width, carries in ((self.WIDTH, False), (7, True)):
            scores, frame = _locals_at_return(
                partial(score_packed_group_strips, strip_width=width),
                profile, _group(subjects, "strips"), GP, frame_of=_sweep,
            )
            assert scores.tolist() == expected, width
            assert frame["carries"] == carries


class TestWorkingBuffersStayInRung:
    """The sweeps' working buffers still have their rung's or tier's
    dtype when the sweep returns.  A rebinding such as
    ``f = f - np.int64(sigma)`` widens the row sweep's int16 rung to
    int64 and leaves every score exact, so only a dtype check catches
    it.  The row sweep's similarity tiles are the one buffer outside
    the rung: int8 while the matrix fits, the rung's dtype past 127.
    A group whose rows clear the int8 row rule sweeps in int8 below its
    ladder rung: its buffers are int8 if it never promotes, and all of
    the ladder's dtype, none left int8, once it has."""

    @pytest.mark.parametrize("scale", [1, 20], ids=["int8-tiles", "wide-tiles"])
    @pytest.mark.parametrize(
        "lengths", [[3, 17, 30], [3, 17, 30] * 22, [3, 17, 30] * 96],
        ids=["accumulate", "doubling", "int8-rows"],
    )
    @pytest.mark.parametrize(
        "gaps", [GP, GapPenalty(rho=2**20, sigma=2**20)],
        ids=["int16", "wide"],
    )
    @pytest.mark.parametrize(
        "entry, width, branch",
        [("gotoh", 30, "one-strip"), ("strips", 8, "carry"),
         ("strips", 32, "one-strip")],
        ids=["row-one-strip", "strips-carry", "strips-one-strip"],
    )
    def test_buffers_keep_the_rung_dtype(
        self, entry, width, branch, gaps, lengths, scale
    ):
        rng = np.random.default_rng(11)
        query = Sequence.random("q", 20, rng)
        subjects = [
            Sequence.random(f"d{i}", n, rng) for i, n in enumerate(lengths)
        ]
        matrix = SubstitutionMatrix(
            "BLOSUM62 x scale", PROTEIN, BLOSUM62.scores * scale
        )
        profile = QueryProfile(query.codes, matrix)
        if entry == "gotoh":
            fn, group = score_packed_group, _group(subjects)
        else:
            fn = partial(score_packed_group_strips, strip_width=width)
            group = _group(subjects, "strips")
        max_abs = int(np.abs(profile.scores).max())
        expected = _working_dtype(20, width, max_abs, gaps)
        assert (expected is np.int16) == (gaps is GP)
        scores, frame = _locals_at_return(
            fn, profile, group, gaps, frame_of=_sweep
        )
        # Only the int8-rows groups clear the int8 row rule.  Random
        # subjects never promote: those of an int8-wide matrix under
        # the default penalties swept int8 to the last row, the rest
        # their ladder rung.
        lanes = frame["spare"].shape[1]
        assert (lanes * width >= _INT8_MIN_ROW_CELLS) == (len(lengths) > 66)
        narrow = gaps is GP and scale == 1 and len(lengths) > 66
        assert frame["int8_rows"] == (20 if narrow else 0)
        assert scores.tolist() == [
            sw_score_scalar(query, d, matrix, gaps) for d in subjects
        ]
        # The entry point swept at the width and took the branch its id
        # names, and the cross-strip carry stayed int64.
        assert frame["w"] == width
        assert frame["carries"] == (branch == "carry")
        for name in ("bshift", "key", "carry"):
            assert frame[name].dtype == np.int64, name
        # The group sits on the scan-rule side its id names, and the
        # doubling scan's second buffer is among the checked ones.
        assert _takes_doubling(lanes, expected) == (len(lengths) > 3)
        # One (W, strips) similarity tile per distinct query symbol.
        tiles = frame["tiles"]
        assert tiles.shape == (
            np.unique(query.codes).size, width, lanes
        )
        assert tiles.dtype == (np.int8 if scale == 1 else expected)
        buffers = _buffer_dtypes(frame, 2)
        assert len(buffers) >= 5, buffers
        rung = np.int8 if narrow else expected
        assert all(dtype == rung for dtype in buffers.values()), buffers
        assert (frame["rampw"] is None) == narrow

    @pytest.mark.parametrize(
        "m, worst, ladder", [(40, None, np.int16), (100, 80, np.int32)],
        ids=["int16", "int32"],
    )
    @pytest.mark.parametrize(
        "entry, width, branch",
        [("gotoh", 40, "one-strip"), ("strips", 8, "carry"),
         ("strips", 128, "one-strip")],
        ids=["row-one-strip", "strips-carry", "strips-one-strip"],
    )
    def test_promoted_buffers_take_the_ladder_rung(
        self, entry, width, branch, m, worst, ladder
    ):
        # A copy of the query among 288 random subjects (copies of 33,
        # so every entry's rows clear the int8 row rule) trips the int8
        # check mid-sweep.  For the int32 ladder, W scores -80 against
        # everything: the query holds no W, so its largest similarity
        # stays at most 9 (4 * 9 leaves room to enter int8, and 80 fits
        # it) while 2 * m * max_abs passes 2**14.
        rng = np.random.default_rng(13)
        w_code = PROTEIN.code_of("W")
        codes = PROTEIN.random_codes(m, rng)
        codes[codes == w_code] = PROTEIN.code_of("A")
        query = Sequence("q", codes)
        pool = [
            Sequence.random(f"d{i}", n, rng)
            for i, n in enumerate([3, 17, 30] * 11)
        ] + [Sequence("homolog", query.codes.copy())]
        subjects = [pool[i % 33] for i in range(288)] + pool[-1:]
        scores_table = BLOSUM62.scores.copy()
        if worst is not None:
            scores_table[w_code, :] = scores_table[:, w_code] = -worst
        matrix = SubstitutionMatrix("BLOSUM62, W", PROTEIN, scores_table)
        profile = QueryProfile(query.codes, matrix)
        if entry == "gotoh":
            fn, group = score_packed_group, _group(subjects)
            width = group.max_length
        else:
            fn = partial(score_packed_group_strips, strip_width=width)
            group = _group(subjects, "strips")
        max_abs = int(np.abs(profile.scores).max())
        assert _working_dtype(m, width, max_abs, GP) is ladder
        scores, frame = _locals_at_return(
            fn, profile, group, GP, frame_of=_sweep
        )
        reference = {
            id(d): sw_score_scalar(query, d, matrix, GP) for d in pool
        }
        assert scores.tolist() == [reference[id(d)] for d in subjects]
        assert frame["spare"].shape[1] * width >= _INT8_MIN_ROW_CELLS
        assert frame["carries"] == (branch == "carry")
        assert 0 < frame["int8_rows"] < m
        buffers = _buffer_dtypes(frame, 2)
        assert {"h_prev", "f", "best", "htmp", "g", "spare", "rampw"} <= set(
            buffers
        ), buffers
        assert all(dtype == ladder for dtype in buffers.values()), buffers
        assert frame["wrap"].dtype == ladder
        for name in ("bshift", "key", "carry"):
            assert frame[name].dtype == np.int64, name

    @pytest.mark.parametrize("tier", [8, 16])
    def test_striped_tier_state_keeps_the_tier_dtype(self, tier):
        rng = np.random.default_rng(12)
        query = Sequence.random("q", 20, rng)
        subjects = [
            Sequence.random(f"d{i}", n, rng)
            for i, n in enumerate([3, 17, 30])
        ]
        profile = StripedProfile(query.codes, BLOSUM62)
        prof, bias, cap = (
            (profile.profile8, profile.bias, profile.cap8)
            if tier == 8
            else (profile.profile16, 0, profile.cap16)
        )
        group = _group(subjects, "striped")
        (lanes, _), frame = _locals_at_return(
            _lazy_f_sweep, group.codes, prof, GP, bias, cap
        )
        assert lanes.tolist() == [
            min(sw_score_scalar(query, d, BLOSUM62, GP), cap)
            for d in subjects
        ]
        buffers = _buffer_dtypes(frame, 3)
        assert len(buffers) >= 8, buffers
        assert all(dtype == prof.dtype for dtype in buffers.values()), buffers


class TestRungBoundaryScores:
    """Scores on both sides of each rung boundary.  The penalties push
    the sweeps' most negative intermediates (the F seed and the strip
    sweep's ``neg - e_off[0]`` column) right to the rung's edge."""

    @pytest.mark.parametrize("bound, expected", RUNG_BOUNDARIES)
    def test_row_and_strip_sweeps_at_the_bound(self, bound, expected):
        rng = np.random.default_rng(bound)
        m, w, widest = 30, 16, 40
        # The query's W keeps the scaled matrix's |W|_max at 11 * scale.
        scale = _matrix_scale(m, bound)
        matrix = SubstitutionMatrix(
            f"BLOSUM62x{scale}", PROTEIN, BLOSUM62.scores * scale
        )
        codes = PROTEIN.random_codes(m, rng)
        codes[m // 2] = PROTEIN.code_of("W")
        query = Sequence("q", codes)
        subjects = [
            Sequence.random(f"d{i}", n, rng)
            for i, n in enumerate([w - 1, w, w + 1, 2 * w + 1, widest])
        ]
        # The row sweep sizes from the group's width, the strip sweep
        # from the strip width: pin each to the bound in turn.
        for width in (widest, w):
            gaps = _gaps_at_bound(m, width, W_SELF * scale, bound)
            # The rung boundary is where the test means to be.
            assert _working_dtype(m, width, W_SELF * scale, gaps) is expected
            _assert_sweeps_match_scalar(query, subjects, matrix, gaps, w)


@st.composite
def sweep_cases(draw):
    """A query, subjects, a symmetric random matrix, penalties and a
    strip width, sized so every rung of the dtype ladder is drawn."""
    n = PROTEIN.size
    m = draw(st.integers(1, 24))
    # Up to 400 straddles the int16 bound at these lengths; 2**30 // m
    # carries accumulated similarity past int32.
    scale = draw(
        st.one_of(
            st.integers(1, 400), st.integers(2**20, 2**25), st.just(2**30 // m)
        )
    )
    all_negative = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low, high = (-scale, 0) if all_negative else (-scale, scale + 1)
    upper = np.triu(rng.integers(low, high, size=(n, n)))
    scores = upper + np.triu(upper, 1).T
    matrix = SubstitutionMatrix("random", PROTEIN, scores)
    sigma = draw(st.one_of(st.integers(1, 16), st.integers(1, 2**20)))
    # rho up to 2**15 reaches the int16 rung's most negative
    # intermediate, ``-(M + 2*rho + sigma*(m + 1))``.
    rho = draw(st.integers(sigma, min(2**20, sigma + 2**15)))
    # Strip widths, and row lengths whose (L + 1)-row buffers, at
    # 2**k - 1, 2**k and 2**k + 1: the edges of the doubling scan.
    around_powers = sorted(
        {2**k + d for k in range(1, 6) for d in (-2, -1, 0, 1)} - {0}
    )
    w = draw(st.one_of(st.integers(1, 12), st.sampled_from(around_powers)))
    near_strip = st.sampled_from(
        [k for k in (w - 1, w, w + 1, 2 * w - 1, 2 * w + 1) if k >= 1]
    )
    # Up to 4 subjects sweep with np.maximum.accumulate; 15-70 straddle
    # the doubling scan's lane rule in the int16 and int32 rungs.
    count = draw(st.integers(15, 70) if draw(st.booleans()) else st.integers(1, 4))
    lengths = draw(
        st.lists(
            st.one_of(
                st.integers(1, 48), near_strip, st.sampled_from(around_powers)
            ),
            min_size=count, max_size=count,
        )
    )
    # At or past the longest subject the strip sweep takes its
    # one-strip branch; at longest - 1 the longest subject spills into
    # a second strip; at 1 every column is a strip.
    longest = max(lengths)
    w = draw(
        st.one_of(
            st.just(w),
            st.integers(longest, longest + 8),
            st.just(max(longest - 1, 1)),
            st.just(1),
        )
    )
    query = Sequence.random("q", m, rng)
    subjects = [
        Sequence.random(f"d{i}", length, rng)
        for i, length in enumerate(lengths)
    ]
    return query, subjects, matrix, GapPenalty(rho, sigma), w


class TestSweepsAgainstScalar:
    @settings(max_examples=80, deadline=None)
    @given(case=sweep_cases())
    def test_row_and_strip_sweeps_match_scalar(self, case):
        query, subjects, matrix, gaps, w = case
        m = len(query)
        max_abs = int(np.abs(matrix.scores[:, query.codes]).max())
        strip_lanes = sum(-(-len(d) // w) for d in subjects)
        for sweep, width, lanes in (
            ("row", max(map(len, subjects)), len(subjects)),
            ("strip", w, strip_lanes),
        ):
            dtype = _working_dtype(m, width, max_abs, gaps)
            side = (
                "doubling"
                if _takes_doubling(lanes, dtype)
                else "accumulate"
            )
            event(f"{sweep} sweep {dtype.__name__} {side} scan")
        branch = "one-strip" if strip_lanes == len(subjects) else "carry"
        event(f"strip sweep {branch} branch")
        _assert_sweeps_match_scalar(query, subjects, matrix, gaps, w)
