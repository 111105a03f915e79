"""Analytic sizing, attribution, and sensitivity layers over the engines."""

from repro.analysis.attribution import (
    CriticalPath,
    CriticalSegment,
    IterationAnalysis,
    TimeDecomposition,
    analyze_iteration,
    critical_path,
    decompose,
    decompose_spans,
)
from repro.analysis.roofline import ThroughputBounds, throughput_bounds
from repro.analysis.whatif import (
    STANDARD_KNOBS,
    PowerWhatIfResult,
    WhatIfResult,
    whatif_power_sensitivity,
    whatif_sensitivity,
)

__all__ = [
    "ThroughputBounds",
    "throughput_bounds",
    "TimeDecomposition",
    "CriticalPath",
    "CriticalSegment",
    "IterationAnalysis",
    "decompose",
    "decompose_spans",
    "critical_path",
    "analyze_iteration",
    "STANDARD_KNOBS",
    "PowerWhatIfResult",
    "WhatIfResult",
    "whatif_sensitivity",
    "whatif_power_sensitivity",
]
