"""The counter-registry contract (RPL104), including the acceptance
case: a counter added to the code without a docs/observability.md entry
must produce a finding."""

import textwrap
from pathlib import Path

from repro.lint.rules.registry import CounterRegistryRule, parse_registry
from repro.lint.runner import LintRunner

REPO_ROOT = Path(__file__).resolve().parents[2]

REGISTRY_DOC = textwrap.dedent(
    """
    # Observability

    <!-- repro-lint:counter-registry -->

    | counter | incremented |
    |---|---|
    | `engine.pack.groups` | per packing: groups built (see `Packer.run`) |
    | `kernel.*` | per-launch ledger |

    <!-- /repro-lint:counter-registry -->

    <!-- repro-lint:span-registry -->

    | span | opened by |
    |---|---|
    | `search` | `CudaSW.search` |
    | `sweep` | forwarded via `span_name=` |

    <!-- /repro-lint:span-registry -->

    <!-- repro-lint:histogram-registry -->

    | histogram | observed |
    |---|---|
    | `engine.sweep.group_seconds` | per group (see `Histogram`) |

    <!-- /repro-lint:histogram-registry -->
    """
)


def run(tmp_path, source, doc=REGISTRY_DOC):
    (tmp_path / "docs").mkdir(exist_ok=True)
    (tmp_path / "docs" / "observability.md").write_text(doc)
    runner = LintRunner(tmp_path, rules=[CounterRegistryRule()])
    return runner.run_sources(
        {"src/repro/engine/pack.py": textwrap.dedent(source)}
    ).findings


REGISTERED_USE = """
    def f(instr, helper):
        instr.count("engine.pack.groups", 1)
        with instr.span("search"):
            pass
        helper(span_name="sweep")
        instr.observe("engine.sweep.group_seconds", 0.25)
"""


class TestAcceptance:
    def test_undocumented_counter_fails(self, tmp_path):
        findings = run(
            tmp_path,
            REGISTERED_USE
            + "        instr.count(\"engine.pack.totally_new\", 1)\n",
        )
        assert len(findings) == 1
        f = findings[0]
        assert f.rule_id == "RPL104"
        assert "engine.pack.totally_new" in f.message
        assert f.path == "src/repro/engine/pack.py"

    def test_registered_names_are_clean(self, tmp_path):
        assert run(tmp_path, REGISTERED_USE) == []

    def test_wildcard_covers_dynamic_family(self, tmp_path):
        findings = run(
            tmp_path,
            REGISTERED_USE
            + "        instr.count(\"kernel.intra(T=256).cells\", 9)\n",
        )
        assert findings == []

    def test_undocumented_span_fails(self, tmp_path):
        findings = run(
            tmp_path,
            REGISTERED_USE.replace('"search"', '"mystery_phase"'),
        )
        messages = [f.message for f in findings]
        assert any("mystery_phase" in m for m in messages)

    def test_stale_doc_entry_fails(self, tmp_path):
        # 'search' span registered but never opened anywhere.
        findings = run(
            tmp_path,
            """
            def f(instr, helper):
                instr.count("engine.pack.groups", 1)
                helper(span_name="sweep")
                instr.observe("engine.sweep.group_seconds", 0.25)
            """,
        )
        assert len(findings) == 1
        assert "search" in findings[0].message
        assert findings[0].path == "docs/observability.md"

    def test_undocumented_histogram_fails(self, tmp_path):
        findings = run(
            tmp_path,
            REGISTERED_USE
            + "        instr.observe(\"engine.sweep.surprise\", 1.0)\n",
        )
        assert len(findings) == 1
        assert "histogram" in findings[0].message
        assert "engine.sweep.surprise" in findings[0].message
        assert findings[0].path == "src/repro/engine/pack.py"

    def test_stale_histogram_entry_fails(self, tmp_path):
        # Registered histogram never observed anywhere in the sources.
        findings = run(
            tmp_path,
            REGISTERED_USE.replace(
                'instr.observe("engine.sweep.group_seconds", 0.25)',
                "pass",
            ),
        )
        assert len(findings) == 1
        assert "engine.sweep.group_seconds" in findings[0].message
        assert findings[0].path == "docs/observability.md"

    def test_missing_registry_doc_fails(self, tmp_path):
        runner = LintRunner(tmp_path, rules=[CounterRegistryRule()])
        findings = runner.run_sources(
            {
                "src/repro/engine/pack.py": textwrap.dedent(
                    """
                    def f(instr):
                        instr.count("engine.pack.groups", 1)
                    """
                )
            }
        ).findings
        assert len(findings) == 1
        assert "does not exist" in findings[0].message


class TestCollection:
    def test_non_instr_receivers_are_ignored(self, tmp_path):
        # str.count and arbitrary .span() APIs must not leak in.
        findings = run(
            tmp_path,
            REGISTERED_USE
            + "        'text'.count('t')\n"
            + "        tracer = object()\n",
        )
        assert findings == []


class TestPartialTree:
    """Stale rows are judged only when the whole package was linted."""

    def test_one_engine_file_reports_no_stale_rows(self):
        runner = LintRunner(REPO_ROOT, rules=[CounterRegistryRule()])
        assert runner.run_paths(["src/repro/engine/lanes.py"]).findings == []

    def test_full_tree_flags_row_whose_counter_was_deleted(self):
        sources = {
            path.relative_to(REPO_ROOT).as_posix(): path.read_text(
                encoding="utf-8"
            )
            for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
        }
        lanes = "src/repro/engine/lanes.py"
        emit = 'instr.count("engine.sweep.int16_groups", 1)'
        assert emit in sources[lanes]
        sources[lanes] = sources[lanes].replace(emit, "pass")
        runner = LintRunner(REPO_ROOT, rules=[CounterRegistryRule()])
        (finding,) = runner.run_sources(sources).findings
        assert finding.path == "docs/observability.md"
        assert "'engine.sweep.int16_groups'" in finding.message
        assert "stale documentation" in finding.message


class TestParseRegistry:
    def test_first_backtick_per_line_wins(self):
        counters, prefixes, spans, histograms = parse_registry(REGISTRY_DOC)
        assert counters == {"engine.pack.groups"}
        assert prefixes == {"kernel."}
        assert spans == {"search", "sweep"}
        assert histograms == {"engine.sweep.group_seconds"}
        # Description-column code references never register.
        assert "Packer.run" not in counters
        assert "CudaSW.search" not in spans
        assert "Histogram" not in histograms

    def test_text_outside_markers_is_ignored(self):
        counters, prefixes, spans, histograms = parse_registry(
            "some `stray.token` outside any marker section\n"
        )
        assert counters == prefixes == spans == histograms == set()
