"""repro-lint: domain static analysis for the reproduction.

A full section of the source paper is devoted to bugs visible only by
inspecting generated code — the nvcc shallow pointer swap and the
register-array spill that silently wrecked the improved intra-task
kernel (Section III-A).  This package encodes that lesson as
machine-checked invariants over *this* codebase, kept only where they
catch what the tests miss: score arrays allocated without a pinned
dtype, unseeded randomness inside the determinism contract, drift
between emitted counter/span names and their documented registry,
swallowed executor failures, and untyped/undocumented public API.

Pieces:

* :mod:`~repro.lint.rules` — the :class:`~repro.lint.rules.Rule`
  framework and the built-in ruleset, five single-pass AST rules
  (``RPL102``..``RPL106``);
* :mod:`~repro.lint.runner` — file discovery, AST dispatch, cross-file
  ``finish`` hooks and inline ``# repro-lint: disable=...``
  suppressions;
* :mod:`~repro.lint.cli` — the ``repro-lint`` command (text / JSON /
  GitHub-annotation output).

See ``docs/static-analysis.md`` for the rule catalogue and workflow.
The package is stdlib-only on purpose: it must import (and run in CI)
without NumPy/SciPy present.
"""

from repro.lint.findings import Finding, Severity
from repro.lint.rules import FileContext, Rule, all_rules, get_rule, rule_ids
from repro.lint.runner import LintResult, LintRunner

__all__ = [
    "Finding",
    "Severity",
    "FileContext",
    "Rule",
    "all_rules",
    "get_rule",
    "rule_ids",
    "LintResult",
    "LintRunner",
]
