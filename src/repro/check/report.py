"""Unified check report: one schema over the static pass + schedule verification.

``repro check`` runs two tools, or the subset named by ``--only``: the
static pass (:mod:`repro.check.lint`, source locations) and the schedule
sweep (:mod:`repro.check.verify`, whose ``{check, task, time}`` records
nest in per-case documents).  Their findings merge into one document with
one violation schema, so CI and humans consume a single artifact:

* :class:`CheckViolation` — the shared violation record.  Static
  findings carry ``path``/``line``/``col``; dynamic findings carry
  ``case``/``task``/``time``.  ``tool`` says which pass emitted it.
* :class:`ToolReport` — one tool's outcome (ok flag, counts, findings).
* :class:`CheckReport` — the merged document: per-tool summaries plus
  the flat ordered violation list.

Exit-code contract of ``repro check``: 0 clean, 1 violations found,
2 usage error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

__all__ = [
    "CHECK_TOOLS",
    "CheckViolation",
    "ToolReport",
    "CheckReport",
    "run_check",
    "format_check_text",
    "check_to_json",
]


# The tools ``repro check`` can run, in report order.
CHECK_TOOLS = ("lint", "schedule")


@dataclass(frozen=True)
class CheckViolation:
    """One finding from any check tool, in the merged schema."""

    tool: str  # "lint" | "schedule"
    rule: str  # static rule id, or the schedule check name
    message: str
    path: str | None = None
    line: int | None = None
    col: int | None = None
    case: str | None = None  # schedule-verification case id
    task: str | None = None
    time: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"tool": self.tool, "rule": self.rule, "message": self.message}
        for key in ("path", "line", "col", "case", "task", "time"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    def format(self) -> str:
        if self.path is not None:
            where = f"{self.path}:{self.line}:{self.col}"
        else:
            where = self.case or "<run>"
            if self.task is not None:
                where += f" task={self.task}"
            if self.time is not None:
                where += f" t={self.time:.6g}s"
        return f"{where}: [{self.tool}] {self.rule}: {self.message}"


@dataclass
class ToolReport:
    """One tool's contribution to the merged report."""

    tool: str
    ok: bool
    violations: list[CheckViolation] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "ok": self.ok,
            "n_violations": len(self.violations),
            **self.stats,
        }


@dataclass
class CheckReport:
    """Merged outcome of every tool ``repro check`` ran."""

    tools: list[ToolReport]

    @property
    def ok(self) -> bool:
        return all(t.ok for t in self.tools)

    @property
    def violations(self) -> list[CheckViolation]:
        out: list[CheckViolation] = []
        for tool in self.tools:
            out.extend(tool.violations)
        return out

    def to_dict(self) -> dict:
        violations = self.violations
        by_rule: dict[str, int] = {}
        for v in violations:
            by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
        return {
            "ok": self.ok,
            "n_violations": len(violations),
            "tools": {t.tool: t.to_dict() for t in self.tools},
            "by_rule": dict(sorted(by_rule.items())),
            "violations": [v.to_dict() for v in violations],
        }


def _schedule_tool(quick: bool) -> ToolReport:
    from repro.check.verify import run_verification

    document = run_verification(quick=quick)
    violations: list[CheckViolation] = []
    for case in document["cases"]:
        for v in case["violations"]:
            violations.append(
                CheckViolation(
                    tool="schedule",
                    rule=v["check"],
                    message=v["message"],
                    case=case["case"],
                    task=v.get("task"),
                    time=v.get("time"),
                )
            )
    return ToolReport(
        tool="schedule",
        ok=document["ok"],
        violations=violations,
        stats={
            "suite": document["suite"],
            "n_cases": document["n_cases"],
            "n_skipped": document["n_skipped"],
        },
    )


def run_check(
    paths: Sequence[Path | str],
    *,
    only: Iterable[str] = CHECK_TOOLS,
    rules: Iterable[str] | None = None,
    quick: bool = True,
) -> CheckReport:
    """Run the selected check tools and merge their reports.

    ``only`` names the tools to run (a subset of :data:`CHECK_TOOLS`;
    reports follow that tuple's order).  ``rules`` restricts the static
    pass to the named rules.  The schedule tool simulates the whole bench
    grid, seconds of work vs. the static pass's milliseconds; ``quick``
    selects its reduced grid.

    Raises:
        ValueError: On an unknown tool or rule name (also when the static
            pass is not selected), or no tool at all (a check that runs
            nothing must not pass).
    """
    from repro.check.lint import lint_paths, selected_rules

    selected = set(only)
    if not selected or not selected <= set(CHECK_TOOLS):
        raise ValueError(
            f"check tools must be a non-empty subset of {CHECK_TOOLS}, "
            f"got {sorted(selected)}"
        )
    enabled = selected_rules(rules)  # validated even when lint is not selected
    tools = []
    if "lint" in selected:
        tools.append(lint_paths(paths, rules=enabled))
    if "schedule" in selected:
        tools.append(_schedule_tool(quick))
    return CheckReport(tools=tools)


def format_check_text(report: CheckReport) -> str:
    """Human-readable merged report."""
    lines: list[str] = []
    for tool in report.tools:
        stats = ", ".join(f"{k}={v}" for k, v in tool.stats.items())
        verdict = "ok" if tool.ok else "FAIL"
        lines.append(f"[{tool.tool}] {verdict}: {len(tool.violations)} "
                     f"violation(s) ({stats})")
    for v in report.violations:
        lines.append(f"  {v.format()}")
    verdict = "OK" if report.ok else "FAIL"
    lines.append(
        f"{verdict}: {len(report.violations)} violation(s) across "
        f"{len(report.tools)} tool(s)"
    )
    return "\n".join(lines)


def check_to_json(report: CheckReport) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"
