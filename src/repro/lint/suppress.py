"""Inline suppression comments.

``# repro-lint: disable=RPL105`` on a line suppresses that rule for the
statement on that line; ``disable=RPL102,RPL105`` lists several,
``disable=all`` suppresses every rule.  Rules may be named by id
(``RPL105``) or by name (``except-swallow``).

Suppressions attach to *physical lines*: a finding is suppressed when
its line carries a matching comment, or when the comment sits on the
immediately preceding line with no code of its own (a "banner"
suppression for statements that are themselves too long to share a
line).
"""

from __future__ import annotations

import io
import re
import tokenize

__all__ = ["SuppressionMap", "scan_suppressions"]

_DIRECTIVE = re.compile(
    r"#\s*repro-lint\s*:\s*disable\s*=\s*([A-Za-z0-9_,\-\s]+)"
)


class SuppressionMap:
    """Per-file map of line number -> suppressed rule ids/names."""

    __slots__ = ("_by_line", "_banner_lines")

    def __init__(
        self,
        by_line: dict[int, frozenset[str]],
        banner_lines: frozenset[int],
    ) -> None:
        self._by_line = by_line
        self._banner_lines = banner_lines

    def is_suppressed(self, line: int, rule_id: str, rule_name: str) -> bool:
        """Whether ``rule`` is disabled on ``line`` (or by a banner on
        the line above)."""
        for candidate in (line, line - 1):
            if candidate != line and candidate not in self._banner_lines:
                continue
            rules = self._by_line.get(candidate)
            if rules and (
                "all" in rules or rule_id in rules or rule_name in rules
            ):
                return True
        return False

    def __len__(self) -> int:
        return len(self._by_line)

    def named_rules(self) -> frozenset[str]:
        """Every rule id or name (or ``all``) a directive names."""
        return frozenset(
            rule for rules in self._by_line.values() for rule in rules
        )


def scan_suppressions(source: str) -> SuppressionMap:
    """Tokenize ``source`` and collect every suppression directive.

    Tokenization (rather than a regex over raw lines) keeps directives
    inside string literals from being honored.
    """
    by_line: dict[int, frozenset[str]] = {}
    comment_only: set[int] = set()
    code_lines: set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return SuppressionMap({}, frozenset())
    for tok in tokens:
        line = tok.start[0]
        if tok.type == tokenize.COMMENT:
            match = _DIRECTIVE.search(tok.string)
            if match:
                rules = frozenset(
                    part.strip()
                    for part in match.group(1).split(",")
                    if part.strip()
                )
                if rules:
                    by_line[line] = by_line.get(line, frozenset()) | rules
        elif tok.type not in (
            tokenize.NL,
            tokenize.NEWLINE,
            tokenize.INDENT,
            tokenize.DEDENT,
            tokenize.ENDMARKER,
        ):
            code_lines.add(line)
    comment_only = {line for line in by_line if line not in code_lines}
    return SuppressionMap(by_line, frozenset(comment_only))
