"""Findings: what a rule reports, and how it serializes.

A :class:`Finding` is one rule violation at one source location.  Its
:meth:`Finding.fingerprint` identifies the *logical* violation for
baseline matching: it hashes the rule id, the file path, the enclosing
definition's qualname and the normalized source line the finding
anchors to — but neither the line number nor the message, so unrelated
edits that move a baselined finding (or reword a message that embeds a
line number) do not resurrect it.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

__all__ = ["Severity", "Finding"]

_WS = re.compile(r"\s+")


def _normalize(text: str) -> str:
    """Strip all whitespace so formatting-only edits keep fingerprints."""
    return _WS.sub("", text)


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
    #: the normalized source line the finding anchors to.
    context: str = field(default="", compare=False)

    def fingerprint(self) -> str:
        """Stable id for baseline matching (line- and message-stable).

        Keyed on (rule, path, enclosing qualname, normalized source
        context); whole-file findings (no context) fall back to the
        message, which is all they have.
        """
        anchor = _normalize(self.context) or self.message
        key = f"{self.rule_id}::{self.path}::{self.qualname}::{anchor}"
        return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]

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
            "fingerprint": self.fingerprint(),
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
