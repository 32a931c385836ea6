"""Per-rule fixtures: each rule has a triggering and a non-triggering case.

Fixtures run through ``LintRunner.run_sources`` with a single rule
instance, so tests exercise exactly the dispatch path the CLI uses
(scope matching included) without touching the filesystem.
"""

import textwrap

from repro.lint.rules.api_docs import PublicApiDocsRule
from repro.lint.rules.dtypes import DtypeStabilityRule
from repro.lint.rules.exceptions import ExceptSwallowRule
from repro.lint.rules.randomness import UnseededRandomRule
from repro.lint.runner import LintRunner


def run_rule(rule, path, source):
    runner = LintRunner("/nonexistent-root", rules=[rule])
    result = runner.run_sources({path: textwrap.dedent(source)})
    return result.findings


class TestDtypeStabilityRule:
    def test_allocation_without_dtype_is_flagged(self):
        findings = run_rule(
            DtypeStabilityRule(),
            "repro/kernels/k.py",
            """
            import numpy as np

            def f(n):
                return np.zeros(n)
            """,
        )
        assert [f.rule_id for f in findings] == ["RPL102"]

    def test_explicit_dtype_is_clean(self):
        findings = run_rule(
            DtypeStabilityRule(),
            "repro/kernels/k.py",
            """
            import numpy as np

            def f(n):
                a = np.zeros(n, dtype=np.int32)
                b = np.arange(n, dtype=np.int64)
                c = np.empty_like(a)
                return a, b, c
            """,
        )
        assert findings == []

    def test_out_of_scope_module_is_ignored(self):
        findings = run_rule(
            DtypeStabilityRule(),
            "repro/app/anything.py",
            """
            import numpy as np

            def f(n):
                return np.zeros(n)
            """,
        )
        assert findings == []


class TestUnseededRandomRule:
    def test_unseeded_default_rng_is_flagged(self):
        findings = run_rule(
            UnseededRandomRule(),
            "repro/engine/r.py",
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """,
        )
        assert [f.rule_id for f in findings] == ["RPL103"]

    def test_legacy_global_call_is_flagged(self):
        findings = run_rule(
            UnseededRandomRule(),
            "repro/sequence/synthetic.py",
            """
            import numpy as np

            def f(n):
                return np.random.randint(0, 20, size=n)
            """,
        )
        assert [f.rule_id for f in findings] == ["RPL103"]

    def test_seeded_and_threaded_rng_are_clean(self):
        findings = run_rule(
            UnseededRandomRule(),
            "repro/sequence/mutate.py",
            """
            import numpy as np

            def f(n, rng: np.random.Generator):
                return rng.integers(0, 20, size=n)

            def g(seed):
                return np.random.default_rng(seed)
            """,
        )
        assert findings == []


class TestExceptSwallowRule:
    def test_bare_except_is_flagged(self):
        findings = run_rule(
            ExceptSwallowRule(),
            "repro/engine/e.py",
            """
            def f():
                try:
                    work()
                except:
                    pass
            """,
        )
        assert findings
        assert all(f.rule_id == "RPL105" for f in findings)

    def test_silent_pass_handler_is_flagged(self):
        findings = run_rule(
            ExceptSwallowRule(),
            "repro/app/a.py",
            """
            def f():
                try:
                    work()
                except ValueError:
                    pass
            """,
        )
        assert [f.rule_id for f in findings] == ["RPL105"]

    def test_handler_that_acts_is_clean(self):
        findings = run_rule(
            ExceptSwallowRule(),
            "repro/engine/e.py",
            """
            def f(log):
                try:
                    work()
                except ValueError as exc:
                    log.warning("failed: %s", exc)
                    raise
            """,
        )
        assert findings == []


class TestPublicApiDocsRule:
    def test_missing_docstring_and_annotations_flagged(self):
        findings = run_rule(
            PublicApiDocsRule(),
            "repro/app/a.py",
            """
            def search(query, db):
                return None
            """,
        )
        messages = " ".join(f.message for f in findings)
        assert all(f.rule_id == "RPL106" for f in findings)
        assert "docstring" in messages
        assert "unannotated" in messages

    def test_documented_annotated_api_is_clean(self):
        findings = run_rule(
            PublicApiDocsRule(),
            "repro/app/a.py",
            '''
            class Runner:
                """Runs things."""

                def __init__(self, n: int) -> None:
                    self.n = n

                def go(self) -> int:
                    """Go."""
                    return self.n

                def _helper(self, anything):
                    return anything

            def _private(x):
                return x
            ''',
        )
        assert findings == []

    def test_init_needs_annotations_but_not_docstring(self):
        findings = run_rule(
            PublicApiDocsRule(),
            "repro/app/a.py",
            '''
            class Runner:
                """Runs things."""

                def __init__(self, n):
                    self.n = n
            ''',
        )
        assert [f.rule_id for f in findings] == ["RPL106"]
        assert "__init__" in findings[0].message


class TestParseErrors:
    def test_unparseable_source_yields_rpl100(self):
        runner = LintRunner("/nonexistent-root", rules=[DtypeStabilityRule()])
        result = runner.run_sources({"repro/kernels/bad.py": "def broken(:\n"})
        assert [f.rule_id for f in result.findings] == ["RPL100"]
