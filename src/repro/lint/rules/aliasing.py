"""RPL101: shallow buffer swaps and parameter-aliasing mutations.

The Python analogue of the paper's nvcc "shallow swap" pitfall
(Section III-A): swapping *pointers* to register arrays instead of their
contents silently demoted the improved kernel's tile state to local
memory.  In a NumPy wavefront sweep the same move — rebinding a name to
an existing buffer (``prev = cur``) instead of exchanging or copying —
creates an alias, and the next in-place update (``cur[...] = ``,
``np.maximum(..., out=cur)``, ``cur += ``) corrupts both rows at once.
The bug is silent: scores drift only on inputs where the clobbered
cells mattered.

Two patterns are flagged, per function:

* a plain assignment ``a = b`` (or ``a = b[...]``, a view) where ``b``
  is a NumPy buffer allocated in the same function, and either name is
  mutated in place on a *later* line — the alias and the mutation
  together are the hazard.  Simultaneous tuple rotations
  (``a, b = b, a``), which exchange bindings without creating a shared
  dangling alias, and explicit ``.copy()`` are the sanctioned idioms.
* an in-place mutation of a bare function parameter (subscript store,
  augmented assignment, or ``out=param``) — the caller's array, which
  may be a cached or shared buffer, is silently modified.

The later-line requirement keeps the rule precise: rebinding a buffer
that is never touched again (the fresh-buffer rotation in the
antidiagonal sweep) is the *fix* for this bug class, not an instance of
it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import dotted_name, iter_functions
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, Rule, register

__all__ = ["ShallowSwapRule"]

#: NumPy allocation constructors whose result is a mutable buffer.
_ALLOCATORS = frozenset(
    {
        "zeros",
        "ones",
        "empty",
        "full",
        "zeros_like",
        "ones_like",
        "empty_like",
        "full_like",
        "arange",
        "array",
    }
)


def _is_allocation(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.split(".")[-1] in _ALLOCATORS


def _base_name(node: ast.expr) -> str | None:
    """The root variable of ``x``, ``x[...]`` or ``x.attr`` chains."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


class _FunctionScan:
    """One pass over a function body collecting the facts the rule needs."""

    def __init__(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = fn.args
        self.params = {
            a.arg
            for a in (
                *args.posonlyargs, *args.args, *args.kwonlyargs
            )
            if a.arg not in ("self", "cls")
        }
        self.buffers: set[str] = set()
        #: name -> line numbers of in-place mutations of that name.
        self.mutations: dict[str, list[int]] = {}
        #: (node, target, source) of plain alias assignments.
        self.aliases: list[tuple[ast.Assign, str, str]] = []
        #: in-place mutations hitting parameters: (node, param, how).
        self.param_mutations: list[tuple[ast.AST, str, str]] = []
        self._walk(fn)

    def _mutate(self, name: str | None, node: ast.AST, how: str) -> None:
        if name is None:
            return
        self.mutations.setdefault(name, []).append(node.lineno)
        if name in self.params:
            self.param_mutations.append((node, name, how))

    def _walk(self, fn: ast.AST) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                self._scan_assign(node)
            elif isinstance(node, ast.AugAssign):
                # Attribute targets (obj.field += x) mutate an object's
                # field — the accumulator pattern, not array aliasing.
                if not isinstance(node.target, ast.Attribute):
                    self._mutate(
                        _base_name(node.target), node, "augmented assignment"
                    )
            elif isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg == "out" and isinstance(kw.value, ast.Name):
                        self._mutate(
                            kw.value.id, node, "out= argument"
                        )

    def _scan_assign(self, node: ast.Assign) -> None:
        # Subscript stores are in-place mutations of the base buffer.
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                self._mutate(_base_name(target), node, "subscript store")

        # Simultaneous tuple exchanges (a, b = b, a and longer
        # rotations) rebind without leaving a stale alias: the names on
        # both sides are the same set.
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.Tuple)
        ):
            tgt_names = [
                elt.id
                for elt in node.targets[0].elts
                if isinstance(elt, ast.Name)
            ]
            src_names = [
                elt.id
                for elt in node.value.elts
                if isinstance(elt, ast.Name)
            ]
            if (
                len(tgt_names) == len(node.targets[0].elts)
                and len(src_names) == len(node.value.elts)
                and set(tgt_names) == set(src_names)
            ):
                return

        # Buffer allocations introduce buffer names.
        if _is_allocation(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.buffers.add(target.id)
            return

        # Plain alias: name = buffer (or a view of one).
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            source = node.value
            if isinstance(source, ast.Subscript):
                source = source.value
            if isinstance(source, ast.Name):
                self.aliases.append((node, node.targets[0].id, source.id))


@register
class ShallowSwapRule(Rule):
    """Flag view-rebinding buffer rotations and parameter mutations."""

    id = "RPL101"
    name = "shallow-swap"
    description = (
        "Wavefront buffer rebound as an alias/view and later mutated in "
        "place, or an in-place op applied to a function parameter "
        "(the nvcc shallow-pointer-swap bug, in NumPy form)"
    )
    scope = (
        "repro/sw/",
        "repro/engine/lanes.py",
        "repro/kernels/",
    )

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in iter_functions(ctx.tree):
            scan = _FunctionScan(fn)
            yield from self._check_aliases(ctx, fn, scan)
            for node, param, how in scan.param_mutations:
                yield self.finding(
                    ctx,
                    node,
                    f"in-place mutation ({how}) of parameter {param!r} "
                    f"in {fn.name}(): the caller's array is modified; "
                    f"operate on a copy or document ownership transfer",
                )

    def _check_aliases(
        self,
        ctx: FileContext,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        scan: _FunctionScan,
    ) -> Iterator[Finding]:
        for node, target, source in scan.aliases:
            if source not in scan.buffers:
                continue
            for name in (source, target):
                later = [
                    ln
                    for ln in scan.mutations.get(name, ())
                    if ln > node.lineno
                ]
                if later:
                    yield self.finding(
                        ctx,
                        node,
                        f"{target!r} aliases buffer {source!r} in "
                        f"{fn.name}() but {name!r} is mutated in place "
                        f"on line {later[0]}: a shallow swap — exchange "
                        f"with a simultaneous tuple assignment or take "
                        f"an explicit .copy()",
                    )
                    break
