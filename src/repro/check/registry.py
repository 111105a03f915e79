"""Shared rule-name registry for the check tools.

The lint pass (:mod:`repro.check.lint`) and the interprocedural flow
passes (:mod:`repro.check.flow`) share one suppression syntax::

    expr  # repro-lint: disable=<rule>[, <rule>...] -- why

and one meta-rule (``bad-suppression``) that fires when a suppression
names a rule no tool knows.  That meta-rule needs a single rule-name
universe — otherwise suppressing a flow rule would trip the linter and
vice versa.  This module is that universe's neutral ground: it has no
imports, so both tools can depend on it without cycles.

``bad-suppression`` itself is emitted only by the linter (which always
runs alongside the flow passes in a full ``repro check`` and CI), so a typo'd flow
suppression is still caught exactly once.
"""

from __future__ import annotations

__all__ = ["FLOW_RULES", "all_rule_names"]

# Flow rule id -> one-line description.  docs/static_analysis.md carries
# the full rationale and examples; repro.check.dimensions implements the
# dim-* rules, repro.check.provenance the rng-* rules.
FLOW_RULES: dict[str, str] = {
    "dim-add-mix": "addition/subtraction/min/max over mismatched physical dimensions",
    "dim-product": "product or quotient lands outside the recognized dimension table",
    "dim-return": "returned expression's dimension contradicts the declared return dimension",
    "dim-arg": "argument's dimension contradicts the parameter's declared dimension",
    "rng-ambient": "random Generator created at module scope (ambient global state)",
    "rng-unseeded": "random Generator created without a seed",
    "rng-untracked-seed": "Generator seed has no provable provenance from an explicit seed",
}


def all_rule_names() -> set[str]:
    """Every rule id any check tool can emit (lint + flow)."""
    from repro.check.lint import RULES

    return set(RULES) | set(FLOW_RULES)
