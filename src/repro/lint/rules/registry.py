"""RPL104: counter/span/histogram names must match the documented registry.

``docs/observability.md`` is the contract for every counter, span and
histogram name the instrumentation emits — the reproduction's Table I
registry.  Nothing used to keep code and document in sync: a counter
renamed in ``engine/pack.py`` (or a new one added) silently orphaned
its documentation, and dashboards built on the documented names broke.

The document carries machine-readable registry sections delimited by
HTML comments::

    <!-- repro-lint:counter-registry -->
    | `engine.pack.groups` | ... |
    | `kernel.*` | ... |
    <!-- /repro-lint:counter-registry -->

(and the same with ``span-registry`` and ``histogram-registry``).  The
first backticked token on each line inside the markers is a registered
name (descriptions may backtick other identifiers freely); a trailing
``.*`` makes it a prefix wildcard, reserved for genuinely dynamic
families such as the per-kernel ``kernel.<name>.*`` ledger.

The rule enforces both directions:

* every string literal passed to ``instr.count(...)`` /
  ``instr.span(...)`` / ``instr.observe(...)`` in the source tree must
  be registered (exactly, or under a wildcard);
* every *exact* registered name must appear as a literal somewhere in
  the source tree — stale documentation fails the build too.  Wildcards
  are exempt from this direction, since their members are built at
  runtime.  It runs only when the linted files cover the whole
  ``repro`` package they come from: a run over ``src/repro/engine/``
  alone cannot tell a stale row from a name another package emits.

By convention the ambient instrumentation handle is named ``instr``
(see ``repro.obs.context``); only calls through that name are
collected, so unrelated ``str.count`` / ``Span``-like APIs do not leak
into the registry.  A span name forwarded into a helper must travel as
an explicit ``span_name="..."`` keyword at the call site — that keeps
the literal statically visible to this rule.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterator

from repro.lint.astutil import str_arg
from repro.lint.findings import Finding
from repro.lint.rules.base import FileContext, Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.runner import Project

__all__ = ["CounterRegistryRule", "parse_registry"]

#: The doc carrying the registry sections, repo-relative.
REGISTRY_DOC = "docs/observability.md"

_MARKER = re.compile(
    r"<!--\s*repro-lint:(counter|span|histogram)-registry\s*-->"
    r"(.*?)"
    r"<!--\s*/repro-lint:\1-registry\s*-->",
    re.DOTALL,
)
_BACKTICKED = re.compile(r"`([^`\s]+)`")


def parse_registry(
    markdown: str,
) -> tuple[set[str], set[str], set[str], set[str]]:
    """Extract (exact counters, counter prefixes, span names, histogram
    names) from the registry sections of ``markdown``.

    Only the *first* backticked token of each line registers — table
    rows put the name in the first column and may mention classes or
    other identifiers in their description.  Prefixes come from
    ``name.*`` wildcard entries, with the ``*`` stripped (the dot is
    kept so ``kernel.*`` cannot accidentally cover ``kernelx``).
    """
    counters: set[str] = set()
    prefixes: set[str] = set()
    spans: set[str] = set()
    histograms: set[str] = set()
    for match in _MARKER.finditer(markdown):
        kind, body = match.group(1), match.group(2)
        for line in body.splitlines():
            first = _BACKTICKED.search(line)
            if first is None:
                continue
            token = first.group(1)
            if kind == "span":
                spans.add(token)
            elif kind == "histogram":
                histograms.add(token)
            elif token.endswith(".*"):
                prefixes.add(token[:-1])  # keep the trailing dot
            else:
                counters.add(token)
    return counters, prefixes, spans, histograms


@register
class CounterRegistryRule(Rule):
    """Reconcile instr.count/span/observe literals with
    docs/observability.md."""

    id = "RPL104"
    name = "counter-registry"
    description = (
        "Counter/span/histogram name used in code but absent from the "
        "docs/observability.md registry (or registered but unused): "
        "the observability contract drifted"
    )
    # Everything instrumented; the linter's own fixtures are excluded.
    scope = ("repro/",)

    def __init__(self) -> None:
        #: name -> first (ctx.path, node) using it.
        self.counters_used: dict[str, tuple[str, int, int]] = {}
        self.spans_used: dict[str, tuple[str, int, int]] = {}
        self.histograms_used: dict[str, tuple[str, int, int]] = {}
        #: root-relative ``repro`` package directories of linted files.
        self.packages: set[str] = set()

    def applies_to(self, ctx: FileContext) -> bool:
        if ctx.module_path.startswith("repro/lint/"):
            return False
        return super().applies_to(ctx)

    def check_file(self, ctx: FileContext) -> Iterator[Finding]:
        # ctx.path ends in ctx.module_path (``repro/...``); what comes
        # before it locates the package directory.
        prefix = ctx.path[: len(ctx.path) - len(ctx.module_path)]
        self.packages.add(prefix + "repro")
        return super().check_file(ctx)

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        """Collect literals; reconciliation happens in :meth:`finish`."""
        # Span names forwarded into a helper travel as an explicit
        # span_name= keyword (the documented convention), so the
        # literal stays visible at the call site.
        for kw in node.keywords:
            if kw.arg == "span_name" and (
                isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            ):
                self.spans_used.setdefault(
                    kw.value.value,
                    (ctx.path, node.lineno, node.col_offset),
                )
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        if not (
            isinstance(func.value, ast.Name) and func.value.id == "instr"
        ):
            return None
        if func.attr not in ("count", "span", "observe"):
            return None
        literal = str_arg(node)
        if literal is None:
            return None
        used = {
            "count": self.counters_used,
            "span": self.spans_used,
            "observe": self.histograms_used,
        }[func.attr]
        used.setdefault(literal, (ctx.path, node.lineno, node.col_offset))
        return None

    def finish(self, project: "Project") -> Iterator[Finding]:
        doc_path = project.root / REGISTRY_DOC
        if (
            not self.counters_used
            and not self.spans_used
            and not self.histograms_used
        ):
            return
        if not doc_path.is_file():
            yield self._doc_finding(
                f"instrumentation names are used but the registry "
                f"document {REGISTRY_DOC} does not exist",
            )
            return
        exact, prefixes, spans, histograms = parse_registry(
            doc_path.read_text(encoding="utf-8")
        )
        if not exact and not prefixes and not spans and not histograms:
            yield self._doc_finding(
                f"{REGISTRY_DOC} has no repro-lint registry sections "
                f"(<!-- repro-lint:counter-registry --> markers)",
            )
            return
        for name, (path, line, col) in sorted(self.counters_used.items()):
            if name in exact or any(name.startswith(p) for p in prefixes):
                continue
            yield Finding(
                path=path,
                line=line,
                col=col,
                rule_id=self.id,
                rule_name=self.name,
                message=(
                    f"counter {name!r} is not in the {REGISTRY_DOC} "
                    f"registry: document it (or fix the name)"
                ),
                severity=self.severity,
            )
        for name, (path, line, col) in sorted(self.spans_used.items()):
            if name in spans:
                continue
            yield Finding(
                path=path,
                line=line,
                col=col,
                rule_id=self.id,
                rule_name=self.name,
                message=(
                    f"span {name!r} is not in the {REGISTRY_DOC} "
                    f"registry: document it (or fix the name)"
                ),
                severity=self.severity,
            )
        for name, (path, line, col) in sorted(self.histograms_used.items()):
            if name in histograms:
                continue
            yield Finding(
                path=path,
                line=line,
                col=col,
                rule_id=self.id,
                rule_name=self.name,
                message=(
                    f"histogram {name!r} is not in the {REGISTRY_DOC} "
                    f"registry: document it (or fix the name)"
                ),
                severity=self.severity,
            )
        if not self._covers_packages(project):
            return
        for name in sorted(exact - set(self.counters_used)):
            yield self._doc_finding(
                f"registered counter {name!r} is never emitted by the "
                f"linted sources: stale documentation (delete the entry "
                f"or restore the counter)",
            )
        for name in sorted(spans - set(self.spans_used)):
            yield self._doc_finding(
                f"registered span {name!r} is never opened by the "
                f"linted sources: stale documentation (delete the entry "
                f"or restore the span)",
            )
        for name in sorted(histograms - set(self.histograms_used)):
            yield self._doc_finding(
                f"registered histogram {name!r} is never observed by "
                f"the linted sources: stale documentation (delete the "
                f"entry or restore the histogram)",
            )

    def _covers_packages(self, project: "Project") -> bool:
        """Whether every module of each package in :attr:`packages` was
        linted.  (In-memory fixtures whose package is not on disk
        count as whole.)"""
        linted = {(project.root / p).resolve() for p in project.file_paths}
        return all(
            path.resolve() in linted
            for package in self.packages
            for path in (project.root / package).rglob("*.py")
        )

    def _doc_finding(self, message: str) -> Finding:
        return Finding(
            path=REGISTRY_DOC,
            line=0,
            col=0,
            rule_id=self.id,
            rule_name=self.name,
            message=message,
            severity=self.severity,
        )
