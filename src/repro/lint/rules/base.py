"""Rule base class, visitor dispatch and the rule registry."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.lint.astutil import qualname_index
from repro.lint.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.runner import Project

__all__ = [
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "rule_ids",
]


@dataclass
class FileContext:
    """One parsed source file as the rules see it.

    ``module_path`` is the path from the innermost ``repro/`` package
    root onward (``repro/engine/lanes.py``), which is what rule scopes
    match against — so the same file scopes identically whether the
    linter was pointed at ``src/``, ``src/repro/engine`` or a checkout
    living somewhere else entirely.
    """

    path: str  #: as reported in findings (repo-relative when possible)
    module_path: str  #: scope-matching path, '/'-separated
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    #: per-file memo shared between rules (the qualname table) so
    #: each pass over the tree runs at most once.
    cache: dict[str, Any] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()

    def qualname_at(self, line: int) -> str:
        """Innermost def/class qualname containing ``line`` ('' if none)."""
        spans = self.cache.get("qualname_spans")
        if spans is None:
            index = qualname_index(self.tree)
            spans = sorted(
                (
                    node.lineno,
                    getattr(node, "end_lineno", None) or node.lineno,
                    index.get(id(node), ""),
                )
                for node in ast.walk(self.tree)
                if isinstance(
                    node,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
            )
            self.cache["qualname_spans"] = spans
        best = ""
        best_span: int | None = None
        for start, end, qualname in spans:
            if start > line:
                break
            if line <= end and (best_span is None or end - start <= best_span):
                best = qualname
                best_span = end - start
        return best

    def context_line(self, line: int) -> str:
        """The source line at 1-based ``line`` ('' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


class Rule:
    """Base class: one named, scoped static check.

    Subclasses set the class attributes and either define
    ``visit_<NodeType>(node, ctx)`` methods (each may return an
    iterable of :class:`Finding`) or override :meth:`check_file`.
    """

    #: Stable id, ``RPL1xx``.
    id: str = ""
    #: Human name, usable in suppressions (``disable=unseeded-random``).
    name: str = ""
    #: One-line description for ``--list-rules`` and the docs.
    description: str = ""
    severity: Severity = Severity.ERROR
    #: ``module_path`` prefixes this rule applies to ('' matches all).
    scope: tuple[str, ...] = ()

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on ``ctx`` (prefix match on scope)."""
        if not self.scope:
            return True
        return any(ctx.module_path.startswith(p) for p in self.scope)

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        """Default engine: dispatch ``visit_<NodeType>`` over the AST."""
        for node in ast.walk(ctx.tree):
            visitor = getattr(self, f"visit_{type(node).__name__}", None)
            if visitor is None:
                continue
            result = visitor(node, ctx)
            if result:
                yield from result

    def finish(self, project: "Project") -> Iterator[Finding]:
        """Cross-file hook, called once after every file was checked."""
        return iter(())

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST | None,
        message: str,
    ) -> Finding:
        """A :class:`Finding` by this rule at ``node`` (or whole-file)."""
        line = getattr(node, "lineno", 0) if node is not None else 0
        return Finding(
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0) if node is not None else 0,
            rule_id=self.id,
            rule_name=self.name,
            message=message,
            severity=self.severity,
            qualname=ctx.qualname_at(line),
            context=ctx.context_line(line),
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator: add a rule to the built-in registry."""
    if not cls.id or not cls.name:
        raise ValueError(f"rule {cls.__name__} needs an id and a name")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(id_or_name: str) -> type[Rule]:
    """Look a rule class up by id (``RPL103``) or name."""
    if id_or_name in _REGISTRY:
        return _REGISTRY[id_or_name]
    for cls in _REGISTRY.values():
        if cls.name == id_or_name:
            return cls
    raise KeyError(f"no rule {id_or_name!r}")


def rule_ids() -> tuple[str, ...]:
    """Every registered rule id, sorted."""
    return tuple(sorted(_REGISTRY))
