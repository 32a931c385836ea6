"""RPL102: score-array dtype stability in the DP hot paths.

Striped/SIMD Smith-Waterman implementations live on saturation and
width discipline (SSW, SWIPE: scores are only correct while they fit
the lane width).  The NumPy analogue: an array allocated *without* an
explicit ``dtype`` silently becomes ``float64`` (or the platform
default integer, which is ``int32`` on Windows and ``int64`` on Linux),
so score arithmetic either loses integer exactness or changes overflow
behavior between platforms.  Every allocation on a scoring hot path
must pin its dtype at the call site.

``*_like`` constructors are exempt: they inherit the (already pinned)
dtype of their prototype.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name, has_kwarg
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, Rule, register

__all__ = ["DtypeStabilityRule"]

#: Constructors that take a dtype and default it when omitted.
_NEEDS_DTYPE = frozenset(
    {"zeros", "ones", "empty", "full", "arange", "array", "asarray"}
)


@register
class DtypeStabilityRule(Rule):
    """Flag NumPy allocations without an explicit dtype in hot loops."""

    id = "RPL102"
    name = "dtype-stability"
    description = (
        "NumPy array allocated without an explicit dtype= in a scoring "
        "hot path: a silent float64 or platform-default integer changes "
        "scores without crashing"
    )
    scope = (
        "repro/kernels/",
        "repro/engine/lanes.py",
        "repro/engine/striped.py",
        "repro/sw/",
    )

    def visit_Call(
        self, node: ast.Call, ctx: FileContext
    ) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return
        parts = name.split(".")
        # Only numpy-module constructors (np.zeros / numpy.zeros); bare
        # zeros() or method calls named array() are someone else's.
        if len(parts) != 2 or parts[0] not in ("np", "numpy"):
            return
        if parts[1] not in _NEEDS_DTYPE:
            return
        if has_kwarg(node, "dtype"):
            return
        yield self.finding(
            ctx,
            node,
            f"np.{parts[1]}(...) without an explicit dtype= on a "
            f"scoring hot path: pin the score dtype at allocation",
        )
