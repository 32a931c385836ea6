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

The rule's second check guards the other edge of width discipline:
8-bit lanes that *are* pinned can still silently wrap.  NumPy integer
arithmetic wraps modulo 2**8 with no warning by default, so a plain
``np.add``/``+`` on an ``int8``/``uint8`` array is only correct inside
a saturation discipline — the ``np.maximum``-before-``np.subtract``
saturating idiom and the per-column ``np.minimum`` cap clip of
:mod:`repro.engine.striped` are the sanctioned shapes.  A function
that allocates an 8-bit array and runs wrap-prone arithmetic on it
without any clamp (``np.minimum``/``np.maximum``/``np.clip``)
touching its narrow arrays is flagged; a single clamp marks the
function as saturation-disciplined (the check is deliberately
function-granular and flow-insensitive, like every other rule here).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name, has_kwarg, kwarg_value
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, Rule, register

__all__ = ["DtypeStabilityRule"]

#: Constructors that take a dtype and default it when omitted.
_NEEDS_DTYPE = frozenset(
    {"zeros", "ones", "empty", "full", "arange", "array", "asarray"}
)

#: Dtype spellings that denote wrap-prone 8-bit lanes.
_NARROW_DTYPES = frozenset({"int8", "uint8"})

#: Elementwise ufuncs whose integer overflow wraps silently.
_WRAP_UFUNCS = frozenset({"add", "subtract", "multiply"})

#: Clamp ufuncs that implement the saturating idiom.
_GUARD_UFUNCS = frozenset({"minimum", "maximum", "clip"})

_WRAP_BINOPS = (ast.Add, ast.Sub, ast.Mult)


def _is_narrow_dtype(node: ast.expr | None) -> bool:
    """Whether a ``dtype=`` value statically names an 8-bit lane type."""
    if node is None:
        return False
    name = dotted_name(node)
    if name is not None:
        parts = name.split(".")
        return (
            len(parts) == 2
            and parts[0] in ("np", "numpy")
            and parts[1] in _NARROW_DTYPES
        )
    return isinstance(node, ast.Constant) and node.value in _NARROW_DTYPES


def _root_name(node: ast.expr) -> str | None:
    """The base ``Name`` under a Subscript/Attribute chain
    (``f[:, 0, 1:]`` -> ``f``), else ``None``."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


@register
class DtypeStabilityRule(Rule):
    """Flag NumPy allocations without an explicit dtype in hot loops."""

    id = "RPL102"
    name = "dtype-stability"
    description = (
        "NumPy array allocated without an explicit dtype= in a scoring "
        "hot path, or unguarded int8/uint8 arithmetic that can wrap "
        "without a saturation clamp: silent promotion and silent "
        "wraparound both change scores without crashing"
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

    def visit_Module(
        self, node: ast.Module, ctx: FileContext
    ) -> Iterator[Finding]:
        # The wrap check is function-granular: closures share their
        # enclosing function's arrays (and its clamps), so each
        # *outermost* function is analyzed with its whole subtree and
        # nested defs are skipped as separate units.
        nested: set[ast.AST] = set()
        functions = [
            n
            for n in ast.walk(node)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for fn in functions:
            for sub in ast.walk(fn):
                if sub is not fn and isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    nested.add(sub)
        for fn in functions:
            if fn not in nested:
                yield from self._check_wrap(fn, ctx)

    def _check_wrap(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: FileContext,
    ) -> Iterator[Finding]:
        """Flag wrap-prone 8-bit arithmetic in a clamp-free function."""
        narrow = self._narrow_names(fn)
        if not narrow or self._has_saturation_guard(fn, narrow):
            return
        for sub in ast.walk(fn):
            if isinstance(sub, ast.BinOp) and isinstance(
                sub.op, _WRAP_BINOPS
            ):
                name = self._narrow_operand(
                    narrow, sub.left, sub.right
                )
                if name is not None:
                    yield self._wrap_finding(ctx, sub, name, "+/-/*")
            elif isinstance(sub, ast.AugAssign) and isinstance(
                sub.op, _WRAP_BINOPS
            ):
                name = self._narrow_operand(narrow, sub.target, sub.value)
                if name is not None:
                    yield self._wrap_finding(ctx, sub, name, "+=/-=/*=")
            elif isinstance(sub, ast.Call):
                ufunc = self._numpy_func(sub)
                if ufunc in _WRAP_UFUNCS:
                    name = self._narrow_operand(
                        narrow,
                        *sub.args,
                        *(kw.value for kw in sub.keywords),
                    )
                    if name is not None:
                        yield self._wrap_finding(
                            ctx, sub, name, f"np.{ufunc}"
                        )

    @staticmethod
    def _narrow_names(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> frozenset[str]:
        """Local names statically bound to 8-bit arrays: allocator
        calls with a narrow ``dtype=`` and ``.astype(np.uint8)``."""
        names = set()
        for sub in ast.walk(fn):
            if not (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Call)
            ):
                continue
            call = sub.value
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                cast_to = call.args[0] if call.args else None
                if _is_narrow_dtype(cast_to):
                    names.add(sub.targets[0].id)
            elif _is_narrow_dtype(kwarg_value(call, "dtype")):
                names.add(sub.targets[0].id)
        return frozenset(names)

    def _has_saturation_guard(
        self,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        narrow: frozenset[str],
    ) -> bool:
        """Whether any clamp in ``fn`` touches a narrow array — the
        marker that the function runs a saturation discipline."""
        for sub in ast.walk(fn):
            if not isinstance(sub, ast.Call):
                continue
            ufunc = self._numpy_func(sub)
            is_clip_method = (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "clip"
                and _root_name(sub.func.value) in narrow
            )
            if is_clip_method:
                return True
            if ufunc in _GUARD_UFUNCS and (
                self._narrow_operand(
                    narrow,
                    *sub.args,
                    *(kw.value for kw in sub.keywords),
                )
                is not None
            ):
                return True
        return False

    @staticmethod
    def _numpy_func(call: ast.Call) -> str | None:
        """``"add"`` for ``np.add(...)``/``numpy.add(...)``, else
        ``None``."""
        name = dotted_name(call.func)
        if name is None:
            return None
        parts = name.split(".")
        if len(parts) == 2 and parts[0] in ("np", "numpy"):
            return parts[1]
        return None

    @staticmethod
    def _narrow_operand(
        narrow: frozenset[str], *operands: ast.expr
    ) -> str | None:
        """The first operand rooted in a narrow name, if any."""
        for operand in operands:
            name = _root_name(operand)
            if name in narrow:
                return name
        return None

    def _wrap_finding(
        self, ctx: FileContext, node: ast.AST, name: str, op: str
    ) -> Finding:
        return self.finding(
            ctx,
            node,
            f"unguarded {op} on 8-bit array {name!r}: int8/uint8 "
            f"arithmetic wraps silently; clamp with np.maximum/"
            f"np.minimum/np.clip (saturating idiom) or widen first",
        )
