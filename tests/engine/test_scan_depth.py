"""The row sweep's doubling scan runs only as deep as a gap can score.

``lanes._prefix_max`` stops doubling once its window covers the
``reach`` the sweep derives from a bound on the row's scores (the
exactness argument is in the ``lanes._sweep`` docstring).  These tests
pin the truncated scan's result, check the sweeps against the scalar
reference on subjects that score far above the gap-open penalty (so
one sweep runs from no scan step at all to the full depth), and guard
the sweep's elementwise clamps against scalar operands, which miss
NumPy's SIMD loops.
"""

import ast
import contextlib
import inspect
import math
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.alphabet import BLOSUM62, PROTEIN, GapPenalty, SubstitutionMatrix
from repro.engine import lanes
from repro.engine.lanes import (
    _DOUBLING_MIN_LANES,
    _decaying_max,
    _doubling_steps,
    _prefix_max,
    _takes_doubling,
    _working_dtype,
    score_packed_group,
    score_packed_group_strips,
)
from repro.engine.pack import pack_group
from repro.sequence import Database, QueryProfile, Sequence
from repro.sw import sw_score_scalar


def _window_max(x, window):
    """Trailing-window maximum down axis 0: row ``j`` is the maximum of
    rows ``max(0, j - window + 1) .. j``."""
    return np.stack([
        x[max(0, j - window + 1): j + 1].max(axis=0)
        for j in range(x.shape[0])
    ])


class TestPrefixMaxReach:
    @pytest.mark.parametrize("dtype", [np.int16, np.int32])
    @pytest.mark.parametrize("side", ["doubling", "accumulate"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 33])
    def test_window_covers_reach(self, dtype, side, n):
        rule = _DOUBLING_MIN_LANES[np.dtype(dtype)]
        width = rule if side == "doubling" else rule - 1
        assert _takes_doubling(width, dtype) == (side == "doubling")
        rng = np.random.default_rng(n)
        x = rng.integers(-500, 500, size=(n, width)).astype(dtype)
        full = np.maximum.accumulate(x, axis=0)
        for reach in (-3, 0, 1, 2, 3, 4, 5, 8, 9, n - 1, n, n + 1, 10 * n):
            out = _prefix_max(x.copy(), np.empty_like(x), reach)
            assert out.dtype == x.dtype
            if reach >= n or side == "accumulate":
                expected = full
            else:
                # The smallest power-of-two window covering reach.
                window = 1
                while window < reach:
                    window *= 2
                expected = _window_max(x, window)
            assert np.array_equal(out, expected), (reach, side)


def _mutant(codes, rng, rate):
    """A copy of ``codes`` with a ``rate`` of substitutions and a short
    insertion and deletion: a homolog that scores far above rho."""
    out = codes.copy()
    hit = rng.random(out.size) < rate
    out[hit] = PROTEIN.random_codes(int(hit.sum()), rng)
    if out.size > 3:
        cut = int(rng.integers(0, out.size - 2))
        out = np.delete(out, [cut, cut + 1])
    at = int(rng.integers(0, out.size + 1))
    return np.insert(out, at, PROTEIN.random_codes(int(rng.integers(1, 4)), rng))


@st.composite
def homolog_groups(draw):
    """A query, subjects that are mutated copies or embeddings of it
    (and a few unrelated ones), a matrix, penalties, a strip width that
    makes the longest subjects cross strip boundaries, and the int8 row
    rule to sweep under: the real one, or one every group clears."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(4, 28))
    query = PROTEIN.random_codes(m, rng)
    # BLOSUM62 sweeps in int16; x64, with the penalties scaled alike,
    # puts the same alignments in the int32 rung from m = 12.
    scale = draw(st.sampled_from([1, 64]))
    matrix = SubstitutionMatrix(
        f"BLOSUM62x{scale}", PROTEIN, BLOSUM62.scores * scale
    )
    sigma = draw(st.integers(1, 3)) * scale
    gaps = GapPenalty(rho=sigma + draw(st.integers(0, 12)) * scale, sigma=sigma)
    # Lane counts on both sides of the scan rule in either rung.
    count = draw(st.sampled_from([1, 3, 15, 16, 17, 31, 32, 33]))
    subjects = []
    for i in range(count):
        kind = draw(st.sampled_from(["mutant", "embedded", "random"]))
        if kind == "random":
            codes = PROTEIN.random_codes(draw(st.integers(1, 40)), rng)
        else:
            codes = _mutant(query, rng, draw(st.floats(0.0, 0.5)))
            if kind == "embedded":
                codes = np.concatenate([
                    PROTEIN.random_codes(draw(st.integers(0, 20)), rng),
                    codes,
                    PROTEIN.random_codes(draw(st.integers(0, 20)), rng),
                ])
        subjects.append(Sequence(f"d{i}", codes.astype(np.uint8)))
    longest = max(len(s) for s in subjects)
    width = draw(st.integers(1, max(longest - 1, 1)))
    # These groups' rows fall short of the int8 row rule; at a rule of
    # one cell, the scale-1 ones sweep int8 (x64 starts past it).
    int8_cells = draw(st.sampled_from([lanes._INT8_MIN_ROW_CELLS, 1]))
    return Sequence("q", query), subjects, matrix, gaps, width, int8_cells


@contextlib.contextmanager
def _depth_probe():
    """Yield the list of doubling steps each row of the sweeps run
    inside the block takes, by wrapping ``lanes._prefix_max`` and the
    int8 rung's ``lanes._decaying_max`` (the sweep looks both up per
    call).  The list's ``int8`` attribute counts the int8 rows."""
    depths = _Depths()

    def scan(g, spare, reach):
        if _takes_doubling(g.shape[1], g.dtype):
            depths.append(_doubling_steps(reach, g.shape[0]))
        return _prefix_max(g, spare, reach)

    def decaying(htmp, g, spare, reach, sigma):
        assert htmp.dtype == g.dtype == spare.dtype == np.int8
        depths.int8 += 1
        depths.append(_doubling_steps(reach, htmp.shape[0]))
        return _decaying_max(htmp, g, spare, reach, sigma)

    with mock.patch.object(lanes, "_prefix_max", scan), mock.patch.object(
        lanes, "_decaying_max", decaying
    ):
        yield depths


class _Depths(list):
    int8 = 0


def _depth_event(entry, depths, counters, prefix, width, dtype):
    """Label how deep a sweep's doubling scan ran, against the full
    ``ceil(log2 width)`` a row, and check the ``scan_steps`` counter."""
    steps = counters.get(prefix + "scan_steps", 0)
    assert counters.get(prefix + "int8_rows", 0) == depths.int8
    if depths.int8:
        promoted = prefix + "promotions" in counters
        event(f"{entry} int8 rows, {'' if promoted else 'not '}promoted")
    if not depths:
        event(f"{entry} accumulate scan")
        assert steps == 0
        return
    assert steps == sum(depths)
    full = math.ceil(math.log2(width)) if width > 1 else 0
    low, high = min(depths), max(depths)
    assert 0 <= low <= high <= full
    reached = "full" if high == full else "partial" if high else "no"
    event(
        f"{entry} {np.dtype(dtype).name} doubling scan: "
        f"from {'no' if low == 0 else 'some'} to {reached} depth"
    )


class TestDepthCappedSweepsAgainstScalar:
    @settings(max_examples=40, deadline=None)
    @given(case=homolog_groups())
    def test_homologs_score_exactly(self, case):
        query, subjects, matrix, gaps, width, int8_cells = case
        rule = mock.patch.object(lanes, "_INT8_MIN_ROW_CELLS", int8_cells)
        with rule:
            self._check(query, subjects, matrix, gaps, width)

    def _check(self, query, subjects, matrix, gaps, width):
        db = Database.from_sequences(subjects)
        members = np.arange(len(subjects))
        profile = QueryProfile(query.codes, matrix)
        expected = [sw_score_scalar(query, d, matrix, gaps) for d in subjects]
        m = len(query)
        max_abs = int(np.abs(profile.scores).max())
        longest = max(len(s) for s in subjects)

        with obs.collect("counters") as instr, _depth_probe() as depths:
            rows = score_packed_group(
                profile, pack_group(db, members, lane_engine="gotoh"), gaps
            )
        _depth_event(
            "gotoh", depths, instr.counters.as_dict(), "engine.sweep.",
            longest, _working_dtype(m, longest, max_abs, gaps),
        )
        with obs.collect("counters") as instr, _depth_probe() as depths:
            strips = score_packed_group_strips(
                profile,
                pack_group(db, members, lane_engine="strips"),
                gaps,
                strip_width=width,
            )
        _depth_event(
            "strips", depths, instr.counters.as_dict(), "engine.strips.",
            width, _working_dtype(m, width, max_abs, gaps),
        )
        event(f"best score over rho: {max(expected) > gaps.rho}")
        assert rows.tolist() == expected
        assert strips.tolist() == expected


def _scalar_operand_clamps(fn):
    """``np.maximum``/``np.minimum``/``np.clip`` calls in ``fn`` with a
    numeric literal operand, as source text."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("maximum", "minimum", "clip")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "np"
        ):
            continue
        for arg in node.args:
            if isinstance(arg, ast.UnaryOp):
                arg = arg.operand
            if isinstance(arg, ast.Constant) and isinstance(
                arg.value, (int, float)
            ):
                found.append(ast.unparse(node))
    return found


class TestNoScalarOperandClamps:
    """An integer maximum with a scalar operand misses NumPy's SIMD loop
    and costs several times the same-shape one, so the sweep clamps
    against arrays."""

    @pytest.mark.parametrize(
        "fn", [lanes._sweep, lanes._prefix_max, lanes._decaying_max]
    )
    def test_no_numeric_literal_operands(self, fn):
        assert _scalar_operand_clamps(fn) == []

    def test_guard_sees_a_literal_operand(self):
        def clamped(htmp, f):
            np.maximum(htmp, f, out=htmp)
            np.maximum(htmp, 0, out=htmp)
            return np.clip(f, -1, None)

        assert _scalar_operand_clamps(clamped) == [
            "np.maximum(htmp, 0, out=htmp)", "np.clip(f, -1, None)"
        ]
