"""Simulation-correctness analyzers: lint, flow analysis, schedule validation.

Three layers, one contract.  :mod:`repro.check.lint` statically enforces
per-file coding discipline the simulator's determinism rests on
(simulated clock only, seeded RNGs, tolerance-based time comparison,
shared cost constructors, opt-in tracing, stable iteration order).
:mod:`repro.check.flow` analyzes the project *interprocedurally* — a
call graph (:mod:`repro.check.callgraph`) feeding a units/dimension
inference pass (:mod:`repro.check.dimensions`, over the
:mod:`repro.units` aliases) and a seed-provenance dataflow pass
(:mod:`repro.check.provenance`).
:mod:`repro.check.schedule` dynamically replays realized schedules and
serving runs against the invariants the simulator promises (exclusive
devices, dependency order, cost-component accounting, KV-memory
conservation, fault-epoch consistency, trace/report reconciliation);
:mod:`repro.check.verify` sweeps those checks across the bench suite.
:mod:`repro.check.report` merges everything into one schema.  CLI:
``repro check [--only lint,flow,schedule]``.
"""

from repro.check.flow import (
    FlowReport,
    flow_report_as_dict,
    run_flow,
)
from repro.check.lint import (
    RULES,
    LintViolation,
    lint_paths,
    lint_source,
)
from repro.check.registry import FLOW_RULES
from repro.check.report import (
    CheckReport,
    CheckViolation,
    ToolReport,
    run_check,
)
from repro.check.schedule import (
    KVEvent,
    ScheduleValidationError,
    Violation,
    require_valid,
    validate_energy_report,
    validate_fleet_energy,
    validate_fleet_run,
    validate_kv_ledger,
    validate_schedule,
    validate_server_run,
)
from repro.check.verify import run_verification

__all__ = [
    "RULES",
    "FLOW_RULES",
    "LintViolation",
    "lint_paths",
    "lint_source",
    "FlowReport",
    "flow_report_as_dict",
    "run_flow",
    "CheckReport",
    "CheckViolation",
    "ToolReport",
    "run_check",
    "KVEvent",
    "ScheduleValidationError",
    "Violation",
    "require_valid",
    "validate_energy_report",
    "validate_fleet_energy",
    "validate_fleet_run",
    "validate_kv_ledger",
    "validate_schedule",
    "validate_server_run",
    "run_verification",
]
