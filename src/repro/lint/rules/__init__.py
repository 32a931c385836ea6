"""The rule framework and the built-in domain ruleset.

A :class:`Rule` inspects one parsed file at a time through
``visit_<NodeType>`` methods (dispatched over ``ast.walk``) or by
overriding :meth:`Rule.check_file` outright; cross-file rules additionally override :meth:`Rule.finish`,
which runs once after every file has been visited (the counter-registry
rule reconciles code against ``docs/observability.md`` there).

Rules self-register via :func:`register`; :func:`all_rules` instantiates
the full set.  Importing this package loads every built-in rule module.
"""

from repro.lint.rules.base import (
    FileContext,
    Rule,
    all_rules,
    get_rule,
    register,
    rule_ids,
)

# Import for the registration side effect: each module defines and
# registers its rule class.
from repro.lint.rules import (  # noqa: F401  (registration imports)
    api_docs,
    dtypes,
    exceptions,
    randomness,
    registry,
)

__all__ = [
    "FileContext",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
    "rule_ids",
]
