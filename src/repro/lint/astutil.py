"""Small shared AST helpers used by several rules."""

from __future__ import annotations

import ast

__all__ = [
    "dotted_name",
    "call_name",
    "has_kwarg",
    "str_arg",
    "qualname_index",
]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """The dotted name a call targets (``np.random.default_rng``)."""
    return dotted_name(node.func)


def has_kwarg(call: ast.Call, name: str) -> bool:
    """Whether ``call`` passes keyword argument ``name``."""
    return any(kw.arg == name for kw in call.keywords)


def qualname_index(tree: ast.AST) -> dict[int, str]:
    """``id(def-node) -> dotted qualname`` for every class/function.

    Nested scopes join with ``.`` (``Outer.method.closure``): the
    enclosing-definition name a finding reports.
    """
    out: dict[int, str] = {}

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                qualname = f"{prefix}.{child.name}" if prefix else child.name
                out[id(child)] = qualname
                walk(child, qualname)
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def str_arg(call: ast.Call, index: int = 0) -> str | None:
    """The ``index``-th positional argument if it is a string literal."""
    if len(call.args) > index:
        arg = call.args[index]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None
