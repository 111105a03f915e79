"""Physical-dimension aliases for the simulator's quantitative core.

Every number the cost/power math passes around is a physical quantity:
the roofline terms are bytes and flops, the scheduler trades in seconds,
the power meter in watts and joules, the carbon ledger in grams of CO2.
The simulator keeps **one canonical unit per dimension** (seconds — never
milliseconds; bytes — never GiB; joules — never kWh) and converts only at
display or config boundaries.  This module gives those conventions names
that both humans and the static analyzer can read.

The aliases are ``typing.NewType`` wrappers: at runtime they are identity
functions (annotations cost nothing, and every annotated module uses
``from __future__ import annotations`` so nothing is even evaluated), but
they let ``repro check --only lint`` run dimensional analysis over the project
call graph — adding ``Seconds`` to ``Bytes``, multiplying ``Watts`` by
``Watts``, or returning a ``Bytes`` expression from a function declared
``-> Seconds`` all become static diagnostics.  See
docs/static_analysis.md for the annotation guide.

:data:`DIMENSIONS` is the single source of truth the analyzer imports:
each alias maps to its exponent vector over the base dimensions in
:data:`BASE_DIMENSIONS`.  Derived aliases are exactly the products the
hot-path arithmetic produces — e.g. ``Bytes / Seconds`` lands on
``BytesPerSecond``, ``Watts * Seconds`` on ``Joules`` — so any product
that lands *outside* this table is, by construction, a quantity the
simulator has no business computing.
"""

from __future__ import annotations

from typing import NewType

__all__ = [
    "BASE_DIMENSIONS",
    "DIMENSIONS",
    "Seconds",
    "Hertz",
    "Bytes",
    "BytesPerSecond",
    "Flops",
    "FlopsPerSecond",
    "Joules",
    "Watts",
    "Tokens",
    "TokensPerSecond",
    "JoulesPerToken",
    "GramsCO2",
    "GramsCO2PerKilowattHour",
    "Ratio",
]

# Simulated-clock time.  The whole simulator runs on seconds; CLI tables
# multiply by 1e3 for millisecond display only.
Seconds = NewType("Seconds", float)

# Event rates (requests/s, iterations/s): 1 / Seconds.
Hertz = NewType("Hertz", float)

# Memory/traffic volume.  Always raw bytes; GIB/GB factors live at the
# spec-construction boundary.
Bytes = NewType("Bytes", float)

# Bandwidth: Bytes / Seconds.
BytesPerSecond = NewType("BytesPerSecond", float)

# Arithmetic work (floating-point operations).
Flops = NewType("Flops", float)

# Compute throughput: Flops / Seconds (peak or sustained FLOP/s).
FlopsPerSecond = NewType("FlopsPerSecond", float)

# Energy.  Always joules; kWh appears only inside the carbon-intensity
# conversion constant.
Joules = NewType("Joules", float)

# Power: Joules / Seconds.
Watts = NewType("Watts", float)

# Token counts (generated or prompted).
Tokens = NewType("Tokens", int)

# Generation throughput: Tokens / Seconds.
TokensPerSecond = NewType("TokensPerSecond", float)

# Energy efficiency: Joules / Tokens.
JoulesPerToken = NewType("JoulesPerToken", float)

# Operational carbon mass.
GramsCO2 = NewType("GramsCO2", float)

# Grid carbon intensity as configured (g/kWh).  Dimensionally this is
# mass per energy; the kWh scale factor is absorbed by _J_PER_KWH at the
# use site, so the exponent vector below is gCO2 * J^-1.
GramsCO2PerKilowattHour = NewType("GramsCO2PerKilowattHour", float)

# Dimensionless scale factors: efficiencies, utilizations, DVFS scales,
# speedups, shares.  Carrying the zero vector (rather than being opaque)
# lets products like ``bandwidth * efficiency`` keep their dimension.
Ratio = NewType("Ratio", float)

# Base dimensions, in canonical order.  Exponent vectors in DIMENSIONS
# (and inside the analyzer) are expressed over these axes.
BASE_DIMENSIONS = ("s", "byte", "flop", "joule", "token", "gco2")

# Alias name -> exponent over BASE_DIMENSIONS (axes omitted are zero).
# repro.check.dimensions treats this table as the universe of recognized
# dimensions: a product/quotient whose vector is absent here fires the
# dim-product rule.
DIMENSIONS: dict[str, dict[str, int]] = {
    "Seconds": {"s": 1},
    "Hertz": {"s": -1},
    "Bytes": {"byte": 1},
    "BytesPerSecond": {"byte": 1, "s": -1},
    "Flops": {"flop": 1},
    "FlopsPerSecond": {"flop": 1, "s": -1},
    "Joules": {"joule": 1},
    "Watts": {"joule": 1, "s": -1},
    "Tokens": {"token": 1},
    "TokensPerSecond": {"token": 1, "s": -1},
    "JoulesPerToken": {"joule": 1, "token": -1},
    "GramsCO2": {"gco2": 1},
    "GramsCO2PerKilowattHour": {"gco2": 1, "joule": -1},
    "Ratio": {},
}
