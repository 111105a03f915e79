"""Simulation-correctness analyzers: one static pass, schedule validation.

Two layers, one contract.  :mod:`repro.check.lint` is the one static
pass: it parses the project once into an index and call graph
(:mod:`repro.check.callgraph`) and runs one rule table over it — per-file
coding discipline the simulator's determinism rests on (simulated clock
only, tolerance-based time comparison, shared cost constructors, opt-in
tracing, stable iteration order), a units/dimension inference pass
(:mod:`repro.check.dimensions`, over the :mod:`repro.units` aliases) and
a seed-provenance pass that owns every RNG rule
(:mod:`repro.check.provenance`).
:mod:`repro.check.schedule` dynamically replays realized schedules and
serving runs against the invariants the simulator promises (exclusive
devices, dependency order, cost-component accounting, KV-memory
conservation, fault-epoch consistency, trace/report reconciliation);
:mod:`repro.check.verify` sweeps those checks across the bench suite.
:mod:`repro.check.report` merges everything into one schema.  CLI:
``repro check [--only lint,schedule]``.
"""

from repro.check.lint import RULES, lint_paths, lint_source
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
    "lint_paths",
    "lint_source",
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
