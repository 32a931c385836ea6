"""The checked-in findings baseline.

A baseline lets the linter land with rules stricter than the existing
tree: pre-existing findings are recorded (fingerprint -> count) in a
committed JSON file and stop failing CI, while anything *new* still
does.  The goal state is an empty baseline — every entry is ratcheted
debt, and regenerating with ``--update-baseline`` after a cleanup
shrinks it.

Matching is by :meth:`~repro.lint.findings.Finding.fingerprint`
(rule + path + enclosing qualname + normalized source context, so pure
line moves and message rewording keep entries valid) with
per-fingerprint counts — adding a *second* instance of an
already-baselined violation to the same file is still reported.

Only the current (version-2) scheme is read; a file of any other
version is refused like a foreign schema, and ``--update-baseline``
regenerates it.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.lint.findings import Finding

__all__ = ["Baseline", "BASELINE_SCHEMA"]

BASELINE_SCHEMA = "repro.lint_baseline"
_VERSION = 2


class Baseline:
    """Fingerprint -> allowed-count map with JSON (de)serialization."""

    def __init__(self, counts: dict[str, int] | None = None) -> None:
        self.counts: dict[str, int] = dict(counts or {})

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline.

        Raises :class:`ValueError` for a foreign schema or any version
        other than the current one.
        """
        path = Path(path)
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("schema") != BASELINE_SCHEMA:
            raise ValueError(
                f"{path} is not a lint baseline (schema="
                f"{data.get('schema')!r})"
            )
        if data.get("version") != _VERSION:
            raise ValueError(
                f"{path} is not a version-{_VERSION} lint baseline "
                f"(version={data.get('version')!r}): regenerate it with "
                f"--update-baseline"
            )
        return cls(
            {
                fp: int(entry["count"])
                for fp, entry in data.get("findings", {}).items()
            }
        )

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        """A baseline accepting exactly the given findings."""
        return cls(dict(Counter(f.fingerprint() for f in findings)))

    def write(self, path: str | Path, findings: Sequence[Finding]) -> Path:
        """Serialize, with one annotated entry per fingerprint."""
        by_fp: dict[str, dict[str, Any]] = {}
        for f in sorted(findings):
            fp = f.fingerprint()
            if fp in by_fp:
                by_fp[fp]["count"] += 1
            else:
                by_fp[fp] = {
                    "rule": f.rule_id,
                    "path": f.path,
                    "qualname": f.qualname,
                    "context": f.context,
                    "message": f.message,
                    "count": 1,
                }
        document = {
            "schema": BASELINE_SCHEMA,
            "version": _VERSION,
            "findings": by_fp,
        }
        path = Path(path)
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    def filter(
        self, findings: Sequence[Finding]
    ) -> tuple[list[Finding], int]:
        """Split findings into (new, baselined-count).

        Up to ``counts[fingerprint]`` occurrences of each fingerprint
        are absorbed; the overflow is new.
        """
        budget = Counter(self.counts)
        fresh: list[Finding] = []
        absorbed = 0
        for f in sorted(findings):
            fp = f.fingerprint()
            if budget[fp] > 0:
                budget[fp] -= 1
                absorbed += 1
            else:
                fresh.append(f)
        return fresh, absorbed

    def __len__(self) -> int:
        return sum(self.counts.values())
