"""Interprocedural flow analysis runner (`repro check --only flow`).

Orchestrates the whole-project passes over a file set:

1. parse + index every file (:class:`~repro.check.callgraph.ProjectIndex`),
2. resolve the call graph (:class:`~repro.check.callgraph.CallGraph`),
3. run the dimension pass (:mod:`repro.check.dimensions`) and the
   seed-provenance pass (:mod:`repro.check.provenance`),
4. apply the shared inline-suppression contract
   (``# repro-lint: disable=<rule> -- why``, same comment syntax and
   semantics as :mod:`repro.check.lint`).

Unlike the linter, the passes here are interprocedural, so the file set
is analyzed as one project: a dimension violation at a call site may
involve a signature three modules away.  ``bad-suppression`` stays the
linter's job (the two always run together in ``repro check`` and CI), so
a typo'd flow suppression is still reported exactly once.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

from repro.check.callgraph import CallGraph, ProjectIndex
from repro.check.dimensions import check_dimensions
from repro.check.lint import LintViolation, _collect_suppressions, iter_python_files
from repro.check.provenance import check_provenance
from repro.check.registry import FLOW_RULES

__all__ = [
    "FlowReport",
    "run_flow",
    "flow_report_as_dict",
]


class FlowReport:
    """Violations plus the project stats the passes ran over."""

    def __init__(
        self,
        violations: list[LintViolation],
        n_files: int,
        n_functions: int,
        n_call_edges: int,
        n_task_sites: int,
    ):
        self.violations = violations
        self.n_files = n_files
        self.n_functions = n_functions
        self.n_call_edges = n_call_edges
        self.n_task_sites = n_task_sites

    @property
    def ok(self) -> bool:
        return not self.violations


def _task_sites(graph: CallGraph) -> int:
    """Call sites of the blessed task constructors (op/transfer_task)."""
    return sum(
        1
        for site in graph.edges
        if site.callee.endswith((":op_task", ":transfer_task"))
    )


def run_flow(
    paths: Sequence[Path | str], rules: Iterable[str] | None = None
) -> FlowReport:
    """Run the flow passes over ``paths`` (files and/or directories).

    ``rules`` selects a subset of :data:`repro.check.registry.FLOW_RULES`
    (default: all; unknown names raise ``ValueError``).  Suppressed
    violations are dropped; ``parse-error`` findings (shared with the
    linter's rule id) are always kept.
    """
    if rules is None:
        enabled = set(FLOW_RULES)
    else:
        enabled = set(rules)
        unknown = enabled - set(FLOW_RULES)
        if unknown:
            raise ValueError(f"unknown flow rules: {sorted(unknown)}")

    files = iter_python_files(paths)
    index = ProjectIndex.build(files)
    graph = CallGraph.build(index)

    violations: list[LintViolation] = [
        LintViolation(
            rule="parse-error", path=path, line=line, col=0, message=message
        )
        for path, line, message in index.parse_errors
    ]
    found = check_dimensions(index, graph) + check_provenance(index, graph)
    violations += [v for v in found if v.rule in enabled]

    # Shared suppression contract: drop violations whose rule is named in
    # an inline `# repro-lint: disable=...` on the same line.
    suppressions_by_path: dict[str, dict[int, list[str]]] = {}
    for module in index.modules.values():
        suppressions_by_path[module.path] = _collect_suppressions(module.source)
    kept = [
        v
        for v in violations
        if v.rule == "parse-error"
        or v.rule not in suppressions_by_path.get(v.path, {}).get(v.line, [])
    ]
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return FlowReport(
        violations=kept,
        n_files=len(files),
        n_functions=len(index.functions),
        n_call_edges=len(graph.edges),
        n_task_sites=_task_sites(graph),
    )


def flow_report_as_dict(report: FlowReport) -> dict:
    """JSON-ready document, shaped like the linter's report."""
    by_rule: dict[str, int] = {}
    for v in report.violations:
        by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
    return {
        "ok": report.ok,
        "n_files": report.n_files,
        "n_functions": report.n_functions,
        "n_call_edges": report.n_call_edges,
        "n_task_sites": report.n_task_sites,
        "n_violations": len(report.violations),
        "by_rule": dict(sorted(by_rule.items())),
        "violations": [v.to_dict() for v in report.violations],
    }
