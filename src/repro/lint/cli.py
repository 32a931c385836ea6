"""The ``repro-lint`` command.

Usage::

    repro-lint src/                       # lint a tree (text output)
    repro-lint --format json src/         # machine-readable report
    repro-lint --format github src/       # GitHub Actions annotations
    repro-lint --list-rules

Exit codes: 0 — no findings; 1 — findings (or a rule error); 2 —
usage/configuration error.  Every finding fails the run: silence an
intentional one at its site with a ``# repro-lint: disable=...``
comment.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import IO, Sequence

from repro.lint.findings import Finding
from repro.lint.rules import all_rules
from repro.lint.runner import LintResult, LintRunner

__all__ = ["main", "build_parser"]

#: JSON report identity, mirrored by the run-report convention.
#: Version 2 dropped the baseline's ``baselined`` count and finding
#: ``fingerprint``.
REPORT_SCHEMA = "repro.lint_report"
REPORT_VERSION = 2

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser (exposed for the test suite and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Domain static analysis for the CUDASW++ reproduction: "
            "single-pass AST rules for dtype stability, determinism, "
            "the observability registry, exception hygiene and "
            "public-API coverage."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="project root for relative paths and docs/ lookups "
        "(default: current directory)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids/names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids/names to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="also write the JSON report to this path (any --format)",
    )
    return parser


def _list_rules(out: IO[str]) -> int:
    width = max(len(r.id) for r in all_rules())
    for rule in all_rules():
        out.write(f"{rule.id:<{width}}  {rule.name}\n")
        out.write(f"{'':<{width}}  {rule.description}\n")
    return EXIT_CLEAN


def _report_dict(result: LintResult) -> dict:
    findings = result.findings
    return {
        "schema": REPORT_SCHEMA,
        "version": REPORT_VERSION,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "findings": [f.to_dict() for f in findings],
        "summary": {
            "total": len(findings),
            "by_rule": _by_rule(findings),
        },
    }


def _by_rule(findings: list[Finding]) -> dict[str, int]:
    out: dict[str, int] = {}
    for f in findings:
        out[f.rule_id] = out.get(f.rule_id, 0) + 1
    return dict(sorted(out.items()))


def main(
    argv: Sequence[str] | None = None,
    out: IO[str] | None = None,
    err: IO[str] | None = None,
) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on usage errors/--help
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return EXIT_USAGE if code not in (0,) else EXIT_CLEAN

    if args.list_rules:
        return _list_rules(out)

    root = Path(args.root).resolve() if args.root else Path.cwd()
    paths = list(args.paths)
    if not paths:
        default = root / "src"
        if not default.is_dir():
            err.write(
                "repro-lint: no paths given and no src/ under the root\n"
            )
            return EXIT_USAGE
        paths = [str(default)]

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        result = LintRunner(root, select=select, ignore=ignore).run_paths(
            paths
        )
    except FileNotFoundError as exc:
        err.write(f"repro-lint: {exc}\n")
        return EXIT_USAGE

    findings = result.findings
    report = _report_dict(result)
    if args.output:
        Path(args.output).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )

    if args.format == "json":
        out.write(json.dumps(report, indent=2) + "\n")
    elif args.format == "github":
        for f in findings:
            out.write(f.render_github() + "\n")
    else:
        for f in findings:
            out.write(f.render_text() + "\n")
        tail = (
            f"{result.files_checked} file(s) checked: "
            f"{len(findings)} finding(s)"
        )
        if result.suppressed:
            tail += f" ({result.suppressed} suppressed inline)"
        out.write(tail + "\n")

    return EXIT_FINDINGS if findings else EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
