"""The row and strip sweeps' int8 rung, case by case.

A group whose rows hold at least ``lanes._INT8_MIN_ROW_CELLS`` cells,
with a small enough similarity range and ``rho + sigma``, sweeps in
int8 until a reduction of its running maximum finds ``top + 4 * hi``
past 127, then promotes in place to its ladder rung
(``lanes._working_dtype``).  These cases are built, not drawn, so no
random draw can skip one: an int8 sweep that never promotes, promotions
into int16 and into int32 on the first reduction, mid-sweep and on the
last block, the check at exactly 127 and at 128, both sides of the row
rule and the ineligible groups, each through the gotoh entry, the
strips entry's one-strip branch and its cross-strip carry.  Every score
is checked against :func:`~repro.sw.scalar.sw_score_scalar`, and the
promotion row against the ``int8_rows`` counter.

The matrices make the running maximum exact: the query's first ``a``
rows are a symbol no subject holds, the homolog subject is a copy of
the rest, and the filler subjects use symbols the query never does, so
by row ``i >= a`` the best score is ``match * (i - a)``.  The fillers
are copies of a few sequences long enough to put every entry's rows at
the row rule, and each distinct subject is scored against the scalar
reference once.
"""

from functools import partial

import numpy as np
import pytest

from repro import obs
from repro.alphabet import BLOSUM62, PROTEIN, GapPenalty, SubstitutionMatrix
from repro.engine.lanes import (
    _BOUND_EVERY,
    _DOUBLING_MIN_LANES,
    _INT8_MAX,
    _INT8_MIN_ROW_CELLS,
    _working_dtype,
    score_packed_group,
    score_packed_group_strips,
)
from repro.engine.pack import pack_group, strip_counts
from repro.sequence import Database, QueryProfile, Sequence
from repro.sw import sw_score_scalar

GP = GapPenalty.cudasw_default()

#: Filler subjects' length, and how many of them put a row of every
#: entry below at the int8 row rule: ``WIDE * FILLER_LENGTH`` cells at
#: one strip a filler, and as many at any strip width dividing the
#: length (more at a width past it).
FILLER_LENGTH = 48
WIDE = _INT8_MIN_ROW_CELLS // FILLER_LENGTH

#: The symbol of the query's unmatched prefix, the symbols of its
#: matched rest, and the symbols of the filler subjects: disjoint.
PREFIX = PROTEIN.code_of("W")
#: A symbol in no query and no subject.
ABSENT = PROTEIN.code_of("C")
QUERY_SYMBOLS = np.array(
    [PROTEIN.code_of(c) for c in "ARNDEQGHIL"], dtype=np.uint8
)
FILLER_SYMBOLS = np.array(
    [PROTEIN.code_of(c) for c in "KMFPSTYV"], dtype=np.uint8
)


def _matrix(match, worst=None, high=None):
    """``match`` on the diagonal, -1 elsewhere, and optionally
    ``-worst`` between the query's first matched symbol and every
    filler symbol, which sets ``max_abs`` without raising ``hi``, and
    ``high`` between that symbol and one no subject holds, which sets
    ``hi`` without changing any score."""
    scores = np.full((PROTEIN.size, PROTEIN.size), -1, dtype=np.int64)
    np.fill_diagonal(scores, match)
    if worst is not None:
        scores[QUERY_SYMBOLS[0], FILLER_SYMBOLS] = -worst
        scores[FILLER_SYMBOLS, QUERY_SYMBOLS[0]] = -worst
    if high is not None:
        scores[QUERY_SYMBOLS[0], ABSENT] = high
        scores[ABSENT, QUERY_SYMBOLS[0]] = high
    return SubstitutionMatrix(f"match{match}", PROTEIN, scores)


def _planted(m, a, fillers, rng, *, homolog=True):
    """An ``m``-row query whose rows from ``a`` on are matched by a
    homolog subject, plus ``fillers`` subjects that match nothing:
    copies of four :data:`FILLER_LENGTH`-residue sequences."""
    query = np.concatenate([
        np.full(a, PREFIX, dtype=np.uint8),
        rng.choice(QUERY_SYMBOLS, size=m - a),
    ])
    query[a] = QUERY_SYMBOLS[0]  # the -worst symbol is in the query
    pool = [rng.choice(FILLER_SYMBOLS, size=FILLER_LENGTH) for _ in range(4)]
    subjects = [
        Sequence(f"f{i}", pool[i % len(pool)]) for i in range(fillers)
    ]
    if homolog:
        subjects.append(Sequence("homolog", query[a:].copy()))
    return Sequence("q", query), subjects


#: The three ways into a sweep: the gotoh entry (every subject one
#: strip), and the strips entry at a width past the longest subject
#: (its one-strip branch) and at 16 (its cross-strip carry).
ENTRIES = {
    "gotoh": ("gotoh", None),
    "strips-one-strip": ("strips", 4096),
    "strips-carry": ("strips", 16),
}


def _sweep(entry, query, subjects, matrix, gaps, *, strip_width=None):
    """Score ``subjects`` through ``entry`` (at ``strip_width``, if
    given, for a strips entry); return the scores, the counters the
    sweep charged under its prefix, its lane count, the cells of one of
    its rows and its ladder rung."""
    lane_engine, width = ENTRIES[entry]
    width = strip_width or width
    db = Database.from_sequences(subjects)
    group = pack_group(db, np.arange(len(subjects)), lane_engine=lane_engine)
    profile = QueryProfile(query.codes, matrix)
    if lane_engine == "gotoh":
        fn, prefix, width = score_packed_group, "engine.sweep.", group.max_length
    else:
        fn = partial(score_packed_group_strips, strip_width=width)
        prefix = "engine.strips."
    with obs.collect("counters") as instr:
        scores = fn(profile, group, gaps)
    counters = {
        k[len(prefix):]: v
        for k, v in instr.counters.as_dict().items()
        if k.startswith(prefix)
    }
    lanes = int(strip_counts(group.lengths, width).sum())
    max_abs = max(int(np.abs(profile.scores).max()), 1)
    rung = _working_dtype(len(query), width, max_abs, gaps)
    return scores, counters, lanes, lanes * width, rung


def _expected(query, subjects, matrix, gaps):
    """The scalar reference's scores, one call per distinct subject."""
    seen = {}
    for d in subjects:
        key = d.codes.tobytes()
        if key not in seen:
            seen[key] = sw_score_scalar(query, d, matrix, gaps)
    return [seen[d.codes.tobytes()] for d in subjects]


#: (match, worst, rows m, homolog start a, ladder rung, the row the
#: group promotes at), under the default penalties.  With hi = match, a
#: group promotes at the first multiple of 4 past a where
#: match * (i - a) + 4 * match > 127; worst = 100 sets max_abs, which
#: takes the ladder to int32 and leaves the check alone.
PROMOTIONS = {
    # 4 * 25 = 100 enters; any match before row 4 trips row 4.
    "int16-first-reduction": (25, None, 40, 0, np.int16, 4),
    # 4 * (i - a) + 16 > 127 from i - a = 28: row 28.
    "int16-mid-sweep": (4, None, 80, 0, np.int16, 28),
    # ... and from a = 45 only at row 76, the last block of 80 rows.
    "int16-last-block": (4, None, 80, 45, np.int16, 76),
    # max_abs = 100 puts 2 * m * max_abs past 2**14: the int32 rung.
    "int32-first-reduction": (25, 100, 82, 0, np.int32, 4),
    "int32-mid-sweep": (4, 100, 82, 12, np.int32, 40),
    "int32-last-block": (4, 100, 82, 52, np.int32, 80),
}


class TestInt8Rung:
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_sweeps_int8_without_promotion(self, entry):
        # Random subjects under BLOSUM62 and the default penalties: the
        # bulk of a protein search stays in int8 to the last row.
        rng = np.random.default_rng(3)
        query = Sequence.random("q", 60, rng)
        pool = [
            Sequence.random(f"d{i}", int(n), rng)
            for i, n in enumerate(rng.integers(48, 90, size=8))
        ]
        subjects = [pool[i % len(pool)] for i in range(WIDE)]
        scores, counters, _, cells, rung = _sweep(
            entry, query, subjects, BLOSUM62, GP
        )
        assert scores.tolist() == _expected(query, subjects, BLOSUM62, GP)
        assert rung is np.int16 and cells >= _INT8_MIN_ROW_CELLS
        assert counters["int8_rows"] == 60
        assert "promotions" not in counters
        assert counters["int16_groups"] == 1

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("case", list(PROMOTIONS))
    def test_promotes_to_the_ladder_rung(self, case, entry):
        match, worst, m, a, ladder, row = PROMOTIONS[case]
        rng = np.random.default_rng(m + a)
        query, subjects = _planted(m, a, WIDE, rng)
        matrix = _matrix(match, worst)
        scores, counters, _, cells, rung = _sweep(
            entry, query, subjects, matrix, GP
        )
        assert scores.tolist() == _expected(query, subjects, matrix, GP)
        assert scores[-1] == match * (m - a)
        assert rung is ladder and cells >= _INT8_MIN_ROW_CELLS
        assert row % _BOUND_EVERY == 0 and 0 < row < m
        assert counters["int8_rows"] == row
        assert counters["promotions"] == 1
        assert counters.get("int16_groups", 0) == (ladder is np.int16)

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("check", [_INT8_MAX, _INT8_MAX + 1])
    def test_check_at_the_int8_edge(self, check, entry):
        # hi = 22, from a similarity no cell uses, and match = 1: by row
        # 40 the best score is 40 - a, so the reduction there reads
        # 40 - a + 4 * 22.  At 127 (a = 1) the group stays in int8 (the
        # next reduction would be row 44, past the last row); at 128
        # (a = 0) it promotes there.
        m, reduction, high = 44, 40, 22
        a = reduction + _BOUND_EVERY * high - check
        rng = np.random.default_rng(check)
        query, subjects = _planted(m, a, WIDE, rng)
        matrix = _matrix(1, high=high)
        scores, counters, _, _, rung = _sweep(
            entry, query, subjects, matrix, GP
        )
        assert scores.tolist() == _expected(query, subjects, matrix, GP)
        assert scores[-1] == m - a
        assert rung is np.int16
        if check <= _INT8_MAX:
            assert counters["int8_rows"] == m
            assert "promotions" not in counters
        else:
            assert counters["int8_rows"] == reduction
            assert counters["promotions"] == 1

    @pytest.mark.parametrize("insert", [11, 12], ids=["inside", "edge"])
    def test_carry_term_at_the_reach_edge(self, insert):
        # The homolog repeats the query with `insert` filler residues
        # after its first 12, so its best alignment opens a gap at
        # in-strip column 11 of strip 0 and closes it `insert` columns
        # on, in strip 1: only the int8 carry can bring that E term
        # across.  At row 11 the bound is exact (4 a row, 48), reach is
        # ceil((48 - 12) / 3) = 12, and a 12-residue insert puts the
        # gap's last column at in-strip column 11 = reach - 1, where
        # the term is 48 - 12 - 11 * 3 = 3: the last row the carry is
        # folded into.
        m, width, match = 30, 12, 4
        gaps = GapPenalty(rho=12, sigma=3)
        rng = np.random.default_rng(insert)
        query, fillers = _planted(m, 0, WIDE, rng)
        fillers.pop()  # the plain homolog
        homolog = np.concatenate([
            query.codes[:width],
            rng.choice(FILLER_SYMBOLS, size=insert),
            query.codes[width:],
        ])
        subjects = fillers + [Sequence("gapped", homolog)]
        matrix = _matrix(match)
        scores, counters, _, cells, _ = _sweep(
            "strips-carry", query, subjects, matrix, gaps, strip_width=width
        )
        assert scores.tolist() == _expected(query, subjects, matrix, gaps)
        gap = gaps.rho + (insert - 1) * gaps.sigma
        assert scores[-1] == match * m - gap > match * (m - width)
        assert cells >= _INT8_MIN_ROW_CELLS
        assert counters["int8_rows"] == m

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("side", ["below", "at"])
    def test_row_rule(self, side, entry):
        # One subject short of the rule the group sweeps its ladder rung
        # from row 0; at the rule it sweeps int8.  Every subject is
        # FILLER_LENGTH long, so each entry's row holds that many cells
        # a subject: one strip in the gotoh entry and at the one-strip
        # width, three of 16 columns in the carry.
        rng = np.random.default_rng(5)
        count = WIDE - (side == "below")
        query, subjects = _planted(FILLER_LENGTH, 0, count - 1, rng)
        matrix = _matrix(1)
        scores, counters, lanes, cells, rung = _sweep(
            entry, query, subjects, matrix, GP, strip_width=(
                FILLER_LENGTH if entry == "strips-one-strip" else None
            ),
        )
        assert cells == count * FILLER_LENGTH
        assert (cells >= _INT8_MIN_ROW_CELLS) == (side == "at")
        assert lanes == (3 * count if entry == "strips-carry" else count)
        assert scores.tolist() == _expected(query, subjects, matrix, GP)
        assert rung is np.int16
        assert counters.get("int8_rows", 0) == (
            FILLER_LENGTH if side == "at" else 0
        )

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize(
        "why, matrix, gaps",
        [
            ("rho + sigma past 127", _matrix(8), GapPenalty(rho=120, sigma=8)),
            ("4 * hi past 127", _matrix(32), GP),
            ("similarity past int8", _matrix(1, 128), GP),
        ],
        ids=["penalties", "bound", "similarity"],
    )
    def test_ineligible_groups_sweep_the_ladder(self, why, matrix, gaps, entry):
        # These groups' rows clear the row rule, and they sweep their
        # ladder rung from row 0 on the doubling side of its own lane
        # rule (int32's, for the wide penalties across the one-strip
        # branch's 4,096 columns).
        rng = np.random.default_rng(6)
        query, subjects = _planted(30, 4, WIDE, rng)
        scores, counters, lanes, cells, rung = _sweep(
            entry, query, subjects, matrix, gaps
        )
        assert scores.tolist() == _expected(query, subjects, matrix, gaps)
        assert cells >= _INT8_MIN_ROW_CELLS
        assert lanes >= _DOUBLING_MIN_LANES[np.dtype(rung)], why
        assert "int8_rows" not in counters and "promotions" not in counters
        assert counters["scan_steps"] > 0
