"""The linter's own bookkeeping: suppressions name live rules, and the
documented catalogue is the registered rule set."""

import re
from pathlib import Path

from repro.lint.rules import all_rules, rule_ids
from repro.lint.suppress import scan_suppressions

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_every_suppression_names_a_registered_rule():
    # A directive naming a retired or misspelt rule silences nothing.
    rules = all_rules()
    known = {"all"} | {r.id for r in rules} | {r.name for r in rules}
    stale = {}
    for top in ("src", "benchmarks", "tools"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            named = scan_suppressions(path.read_text()).named_rules()
            if named - known:
                stale[str(path.relative_to(REPO_ROOT))] = sorted(
                    named - known
                )
    assert stale == {}


def test_docs_catalogue_lists_exactly_the_registered_rules():
    doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    section = doc.split("## The rule catalogue", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `(RPL\d+)` \|", section, re.MULTILINE)
    # RPL100 reports unparseable files; it is not a selectable rule.
    assert documented == ["RPL100", *rule_ids()]
