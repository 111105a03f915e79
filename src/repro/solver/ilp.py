"""Integer-linear-programming neuron placement (paper Section 6.3).

Maximizes the total impact of GPU-resident neurons (Equation 2) subject to:

* every neuron lives on exactly one device (Equation 3 — implicit: the
  binary ``a`` variable means GPU, its complement CPU);
* the communication constraint (Inequality 4): if any of a block's neurons
  go to the GPU, at least ``C_l`` of them must, so the GPU's time advantage
  covers one intra-layer synchronization ``T_sync``, where per-neuron time
  is the weight-read time of Equation 5;
* memory capacities of both devices (Inequality 6);
* the all-or-at-least-C_l conditional, linearized with a binary ``y_l`` and
  big-K (Inequalities 7-8).

Neurons are pre-grouped into similar-impact batches of 64 (Section 6.3.3),
so the MILP has one binary per batch plus one ``y`` per group and HiGHS
(via ``scipy.optimize.milp``) solves it in one to several seconds.  When
every neuron fits the GPU budget the answer is forced: the all-GPU point is
feasible and no objective coefficient is positive, so it is returned
without calling HiGHS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.hardware.spec import MachineSpec
from repro.solver.batching import NeuronBatch, batch_neurons
from repro.solver.placement import NeuronGroup, PlacementPolicy

__all__ = ["SolverOptions", "communication_threshold", "solve_ilp"]


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the ILP solve.

    Attributes:
        batch_size: Neurons per placement batch (paper: 64).
        time_limit: HiGHS wall-clock limit in seconds.
        mip_rel_gap: Acceptable relative optimality gap.
        enforce_communication: Apply Inequalities 4/7/8 (disabling them
            yields the naive "+Engine" policy's behaviour for ablations).
        weight_impact_by_bytes: Weight each neuron's impact by its weight
            bytes in the objective.  Within one layer — where Equation 1 is
            stated and all neurons are the same size — this is a constant
            factor and changes nothing; across heterogeneous blocks
            (attention heads are ~100x an MLP neuron) it makes the
            objective "GPU-served activated computation", the quantity the
            paper's Figure 12 measures.
    """

    batch_size: int = 64
    time_limit: float = 30.0
    mip_rel_gap: float = 1e-3
    enforce_communication: bool = True
    weight_impact_by_bytes: bool = True


def communication_threshold(group: NeuronGroup, machine: MachineSpec) -> int:
    """Minimum GPU neuron count ``C_l`` for one block (Inequality 4).

    Solves ``C * T_gpu + T_sync <= C * T_cpu`` for the smallest integer C;
    per-neuron times follow Equation 5 (weight bytes / device bandwidth).
    Returns 0 when the GPU is never worth a synchronization (T_cpu <=
    T_gpu, which does not occur with real specs).
    """
    t_gpu = group.neuron_bytes / machine.gpu.effective_bandwidth
    t_cpu = group.neuron_bytes / machine.cpu.effective_bandwidth
    if t_cpu <= t_gpu:
        return 0
    return int(math.ceil(machine.sync_overhead / (t_cpu - t_gpu)))


def _solution_to_masks(
    groups: list[NeuronGroup],
    group_batches: list[list[NeuronBatch]],
    a_values: np.ndarray,
) -> list[np.ndarray]:
    masks: list[np.ndarray] = []
    cursor = 0
    for group, batches in zip(groups, group_batches):
        mask = np.zeros(group.n_neurons, dtype=bool)
        for batch in batches:
            if a_values[cursor] > 0.5:
                mask[batch.neuron_indices] = True
            cursor += 1
        masks.append(mask)
    return masks


def solve_ilp(
    groups: list[NeuronGroup],
    machine: MachineSpec,
    gpu_budget_bytes: float,
    cpu_budget_bytes: float | None = None,
    options: SolverOptions | None = None,
) -> PlacementPolicy:
    """Solve the neuron placement MILP.

    Args:
        groups: Sparsifiable blocks with per-neuron impacts and sizes.
        machine: Hardware the policy targets (bandwidths, T_sync).
        gpu_budget_bytes: GPU memory available for neuron weights (capacity
            minus predictors, buffers, and non-sparsifiable weights).
        cpu_budget_bytes: Optional CPU-side cap; omitted when host memory
            comfortably holds the model (the common case in the paper).
        options: Solver knobs.

    Returns:
        A :class:`PlacementPolicy` with ``solver_name="ilp"``.

    Raises:
        RuntimeError: If HiGHS reports infeasibility (e.g. the CPU budget
            cannot hold the spill) or finds no incumbent in time.
    """
    if gpu_budget_bytes < 0:
        raise ValueError("gpu_budget_bytes must be non-negative")
    opts = options or SolverOptions()

    # Small groups (e.g. attention heads) get finer batches so placement
    # retains neuron granularity; large groups use the configured size.
    group_batches = [
        batch_neurons(
            g.impacts, g.neuron_bytes, min(opts.batch_size, max(1, g.n_neurons // 8))
        )
        for g in groups
    ]
    n_a = sum(len(b) for b in group_batches)
    n_groups = len(groups)
    use_comm = opts.enforce_communication
    n_vars = n_a + (n_groups if use_comm else 0)

    # Objective: minimize -sum(impact * a), optionally byte-weighted.
    c = np.zeros(n_vars)
    impacts = np.concatenate(
        [[b.impact for b in batches] for batches in group_batches]
    ) if n_a else np.zeros(0)
    if opts.weight_impact_by_bytes:
        weights = np.concatenate(
            [
                [g.neuron_bytes] * len(batches)
                for g, batches in zip(groups, group_batches)
            ]
        ) if n_a else np.zeros(0)
        objective_coeffs = impacts * weights
    else:
        objective_coeffs = impacts
    c[:n_a] = -objective_coeffs

    batch_bytes = np.concatenate(
        [[b.nbytes for b in batches] for batches in group_batches]
    ) if n_a else np.zeros(0)
    batch_sizes = np.concatenate(
        [[b.size for b in batches] for batches in group_batches]
    ) if n_a else np.zeros(0)

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    lbs: list[float] = []
    ubs: list[float] = []
    row_id = 0

    def add_row(col_idx: np.ndarray, coeffs: np.ndarray, lb: float, ub: float) -> None:
        nonlocal row_id
        rows.append(np.full(col_idx.size, row_id))
        cols.append(col_idx)
        vals.append(coeffs)
        lbs.append(lb)
        ubs.append(ub)
        row_id += 1

    # (6) GPU memory: sum(bytes * a) <= gpu_budget.
    add_row(np.arange(n_a), batch_bytes, -np.inf, gpu_budget_bytes)

    # (6) CPU memory: total - sum(bytes * a) <= cpu_budget.
    if cpu_budget_bytes is not None:
        total_bytes = float(batch_bytes.sum())
        add_row(np.arange(n_a), batch_bytes, total_bytes - cpu_budget_bytes, np.inf)

    # (4)/(7)/(8): per-group communication constraints via y_l and big-K.
    if use_comm:
        cursor = 0
        for gi, (group, batches) in enumerate(zip(groups, group_batches)):
            idx = np.arange(cursor, cursor + len(batches))
            sizes = batch_sizes[cursor : cursor + len(batches)]
            y_col = n_a + gi
            c_l = communication_threshold(group, machine)
            big_k = float(group.n_neurons)
            # (7) sum(size * a) - C_l * y >= 0
            add_row(
                np.concatenate([idx, [y_col]]),
                np.concatenate([sizes, [-float(c_l)]]),
                0.0,
                np.inf,
            )
            # (8) sum(size * a) - K * y <= 0
            add_row(
                np.concatenate([idx, [y_col]]),
                np.concatenate([sizes, [-big_k]]),
                -np.inf,
                0.0,
            )
            cursor += len(batches)

    a_matrix = sparse.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_id, n_vars),
    )
    lb, ub = np.array(lbs), np.array(ubs)
    # No cost is positive, so the all-ones point (every batch on the GPU,
    # every y_l = 1) minimizes c @ x over the whole box; when it also meets
    # every row it is optimal and HiGHS has nothing to decide.
    ones = np.ones(n_vars)
    row_values = a_matrix @ ones
    if np.all(c <= 0.0) and np.all((lb <= row_values) & (row_values <= ub)):
        x = ones
    else:
        result = milp(
            c=c,
            constraints=LinearConstraint(a_matrix, lb, ub),
            integrality=np.ones(n_vars),
            bounds=Bounds(0, 1),
            options={"time_limit": opts.time_limit, "mip_rel_gap": opts.mip_rel_gap},
        )
        if result.x is None:
            raise RuntimeError(f"placement MILP failed: {result.message}")
        x = result.x

    masks = _solution_to_masks(groups, group_batches, x[:n_a])
    objective = float(objective_coeffs @ np.round(x[:n_a]))
    return PlacementPolicy(
        groups=list(groups), gpu_masks=masks, objective=objective, solver_name="ilp"
    )
