"""Offline neuron placement: batching, ILP and greedy solvers.

A neuron's impact is its profiled activation frequency (paper Section 6.2,
Eq. 1), so the pipeline passes activation probabilities to
:class:`NeuronGroup` as impacts unchanged.
"""

from repro.solver.batching import NeuronBatch, batch_neurons
from repro.solver.greedy import greedy_placement, greedy_with_repair
from repro.solver.ilp import SolverOptions, communication_threshold, solve_ilp
from repro.solver.placement import NeuronGroup, NeuronTable, PlacementPolicy

__all__ = [
    "NeuronBatch",
    "NeuronGroup",
    "NeuronTable",
    "PlacementPolicy",
    "SolverOptions",
    "batch_neurons",
    "communication_threshold",
    "greedy_placement",
    "greedy_with_repair",
    "solve_ilp",
]
