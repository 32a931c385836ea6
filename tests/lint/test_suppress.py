"""Inline ``# repro-lint: disable=...`` suppression handling."""

import textwrap

from repro.lint.rules.dtypes import DtypeStabilityRule
from repro.lint.runner import LintRunner
from repro.lint.suppress import scan_suppressions


def run(source):
    runner = LintRunner("/nonexistent-root", rules=[DtypeStabilityRule()])
    return runner.run_sources(
        {"repro/kernels/k.py": textwrap.dedent(source)}
    )


class TestSuppressionDirectives:
    def test_same_line_directive_by_id(self):
        result = run(
            """
            import numpy as np

            def f(n):
                return np.zeros(n)  # repro-lint: disable=RPL102
            """
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_same_line_directive_by_rule_name(self):
        result = run(
            """
            import numpy as np

            def f(n):
                return np.zeros(n)  # repro-lint: disable=dtype-stability
            """
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_banner_line_above(self):
        result = run(
            """
            import numpy as np

            def f(n):
                # repro-lint: disable=RPL102
                return np.zeros(n)
            """
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_disable_all(self):
        result = run(
            """
            import numpy as np

            def f(n):
                return np.zeros(n)  # repro-lint: disable=all
            """
        )
        assert result.findings == []
        assert result.suppressed == 1

    def test_wrong_rule_id_does_not_suppress(self):
        result = run(
            """
            import numpy as np

            def f(n):
                return np.zeros(n)  # repro-lint: disable=RPL105
            """
        )
        assert [f.rule_id for f in result.findings] == ["RPL102"]
        assert result.suppressed == 0

    def test_directive_inside_string_is_inert(self):
        # Directives are parsed from real comment tokens, not text.
        result = run(
            """
            import numpy as np

            def f(n):
                note = "# repro-lint: disable=RPL102"
                return np.zeros(n), note
            """
        )
        assert [f.rule_id for f in result.findings] == ["RPL102"]

    def test_comma_separated_rule_list(self):
        smap = scan_suppressions(
            "x = 1  # repro-lint: disable=RPL102, RPL105\n"
        )
        assert smap.is_suppressed(1, "RPL102", "dtype-stability")
        assert smap.is_suppressed(1, "RPL105", "except-swallow")
        assert not smap.is_suppressed(1, "RPL103", "unseeded-random")
