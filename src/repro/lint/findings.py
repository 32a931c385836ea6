"""Findings: what a rule reports, and how it serializes.

A :class:`Finding` is one rule violation at one source location, with
the enclosing definition's qualname and the source line it anchors to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["Severity", "Finding"]


class Severity(str, Enum):
    """How bad a finding is; drives exit codes and GitHub annotations."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one location."""

    path: str  #: repo-relative, '/'-separated
    line: int  #: 1-based; 0 for whole-file/project findings
    col: int  #: 0-based column offset
    rule_id: str  #: e.g. ``RPL103``
    rule_name: str  #: e.g. ``unseeded-random``
    message: str
    severity: Severity = field(default=Severity.ERROR, compare=False)
    #: dotted name of the enclosing def/class ('' at module level).
    qualname: str = field(default="", compare=False)
    #: the source line the finding anchors to.
    context: str = field(default="", compare=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (the report schema's finding shape)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "name": self.rule_name,
            "severity": str(self.severity),
            "message": self.message,
            "qualname": self.qualname,
            "context": self.context,
        }

    def render_text(self) -> str:
        """The classic one-line ``path:line:col: ID message`` form."""
        return (
            f"{self.path}:{self.line}:{self.col + 1}: "
            f"{self.rule_id} [{self.rule_name}] {self.message}"
        )

    def render_github(self) -> str:
        """A GitHub Actions workflow-command annotation line."""
        kind = "error" if self.severity is Severity.ERROR else "warning"
        message = self.message.replace("%", "%25").replace("\n", "%0A")
        return (
            f"::{kind} file={self.path},line={max(self.line, 1)},"
            f"col={self.col + 1},title={self.rule_id} {self.rule_name}::"
            f"{message}"
        )
