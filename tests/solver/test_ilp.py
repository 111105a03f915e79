"""Tests for the placement MILP (paper Section 6.3)."""

import numpy as np
import pytest

from repro.hardware.spec import PC_HIGH
from repro.solver import ilp as ilp_module
from repro.solver.batching import batch_neurons
from repro.solver.greedy import greedy_placement
from repro.solver.ilp import SolverOptions, communication_threshold, solve_ilp
from repro.solver.placement import NeuronGroup


def make_groups(rng, n_groups=4, n_neurons=256, neuron_bytes=1e6):
    return [
        NeuronGroup(
            name=f"g{i}", impacts=rng.random(n_neurons), neuron_bytes=neuron_bytes
        )
        for i in range(n_groups)
    ]


class TestCommunicationThreshold:
    def test_formula(self):
        group = NeuronGroup(name="g", impacts=np.ones(10), neuron_bytes=1e6)
        c_l = communication_threshold(group, PC_HIGH)
        t_gpu = 1e6 / PC_HIGH.gpu.effective_bandwidth
        t_cpu = 1e6 / PC_HIGH.cpu.effective_bandwidth
        expected = int(np.ceil(PC_HIGH.sync_overhead / (t_cpu - t_gpu)))
        assert c_l == expected

    def test_bigger_neurons_need_fewer(self):
        small = NeuronGroup(name="s", impacts=np.ones(10), neuron_bytes=1e3)
        big = NeuronGroup(name="b", impacts=np.ones(10), neuron_bytes=1e7)
        assert communication_threshold(big, PC_HIGH) < communication_threshold(
            small, PC_HIGH
        )


class TestSolveIlp:
    def test_respects_gpu_budget(self, rng):
        groups = make_groups(rng)
        budget = 100 * 1e6
        policy = solve_ilp(groups, PC_HIGH, budget, options=SolverOptions(batch_size=8))
        assert policy.gpu_bytes <= budget + 1e-6
        assert policy.solver_name == "ilp"

    def test_prefers_high_impact_neurons(self, rng):
        groups = make_groups(rng, n_groups=1, n_neurons=128)
        policy = solve_ilp(
            groups, PC_HIGH, gpu_budget_bytes=64 * 1e6,
            options=SolverOptions(batch_size=4),
        )
        mask = policy.mask("g0")
        on = groups[0].impacts[mask]
        off = groups[0].impacts[~mask]
        assert on.mean() > off.mean()

    def test_matches_greedy_on_relaxed_problem(self, rng):
        # With communication constraints off, the MILP is a knapsack whose
        # greedy solution is near-optimal; ILP must be at least as good.
        groups = make_groups(rng)
        budget = 200 * 1e6
        ilp = solve_ilp(
            groups,
            PC_HIGH,
            budget,
            options=SolverOptions(batch_size=8, enforce_communication=False),
        )
        greedy = greedy_placement(groups, budget, batch_size=8)
        assert ilp.gpu_impact_share() >= greedy.gpu_impact_share() - 0.01

    def test_zero_budget_places_nothing(self, rng):
        groups = make_groups(rng)
        policy = solve_ilp(groups, PC_HIGH, 0.0, options=SolverOptions(batch_size=8))
        assert policy.gpu_bytes == 0.0

    def test_communication_constraint_all_or_at_least_cl(self, rng):
        # Make C_l large relative to the group so partial placements are
        # forbidden: every group must have 0 or >= C_l neurons on GPU.
        groups = make_groups(rng, n_groups=3, n_neurons=64, neuron_bytes=2e4)
        c_l = communication_threshold(groups[0], PC_HIGH)
        assert c_l > 1  # premise of the test
        budget = 40 * 2e4  # less than one full group
        policy = solve_ilp(groups, PC_HIGH, budget, options=SolverOptions(batch_size=4))
        for group in groups:
            count = int(policy.mask(group.name).sum())
            assert count == 0 or count >= c_l, (count, c_l)

    def test_cpu_budget_forces_spill_to_gpu(self, rng):
        groups = make_groups(rng, n_groups=2, n_neurons=64)
        total = sum(g.total_bytes for g in groups)
        cpu_budget = total * 0.5  # CPU can hold only half
        policy = solve_ilp(
            groups,
            PC_HIGH,
            gpu_budget_bytes=total,
            cpu_budget_bytes=cpu_budget,
            options=SolverOptions(batch_size=8),
        )
        assert policy.gpu_bytes >= total - cpu_budget - 1e-6

    def test_infeasible_raises(self, rng):
        groups = make_groups(rng, n_groups=1, n_neurons=32)
        with pytest.raises(RuntimeError):
            solve_ilp(
                groups,
                PC_HIGH,
                gpu_budget_bytes=0.0,
                cpu_budget_bytes=0.0,  # nothing fits anywhere
                options=SolverOptions(batch_size=8),
            )

    def test_negative_budget_rejected(self, rng):
        with pytest.raises(ValueError):
            solve_ilp(make_groups(rng), PC_HIGH, -1.0)

    def test_byte_weighting_prefers_heavy_blocks(self, rng):
        # Two groups, equal impact per neuron, but one's neurons are 100x
        # heavier.  Byte-weighted objective should prefer the heavy block
        # (more computation saved); raw Eq-1 prefers packing many light
        # neurons.
        light = NeuronGroup(name="light", impacts=np.full(100, 0.5), neuron_bytes=1e4)
        heavy = NeuronGroup(name="heavy", impacts=np.full(100, 0.5), neuron_bytes=1e6)
        budget = 50 * 1e6
        weighted = solve_ilp(
            [light, heavy], PC_HIGH, budget,
            options=SolverOptions(batch_size=4, enforce_communication=False),
        )
        raw = solve_ilp(
            [light, heavy], PC_HIGH, budget,
            options=SolverOptions(
                batch_size=4, enforce_communication=False, weight_impact_by_bytes=False
            ),
        )
        assert weighted.mask("heavy").sum() >= raw.mask("heavy").sum()
        assert raw.mask("light").sum() == 100  # raw metric grabs cheap impact


@pytest.fixture
def milp_calls(monkeypatch):
    """Counts calls that reach HiGHS, passing each one through."""
    calls = []
    real_milp = ilp_module.milp

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(ilp_module, "milp", spy)
    return calls


def assert_feasible(policy, groups, gpu_budget, cpu_budget=None):
    assert policy.gpu_bytes <= gpu_budget + 1e-6
    if cpu_budget is not None:
        total = sum(g.total_bytes for g in groups)
        assert total - policy.gpu_bytes <= cpu_budget + 1e-6
    for group in groups:
        count = int(policy.mask(group.name).sum())
        assert count == 0 or count >= communication_threshold(group, PC_HIGH)


class TestForcedAllGpu:
    """When everything fits, the all-GPU point is returned without HiGHS."""

    def test_slack_budget_skips_highs(self, rng, milp_calls):
        groups = make_groups(rng, n_groups=3, n_neurons=64)
        total = sum(g.total_bytes for g in groups)
        policy = solve_ilp(
            groups, PC_HIGH, 2 * total, cpu_budget_bytes=total,
            options=SolverOptions(batch_size=8),
        )
        assert milp_calls == []
        assert all(mask.all() for mask in policy.gpu_masks)
        coeffs = np.concatenate(
            [
                [b.impact * g.neuron_bytes for b in batch_neurons(g.impacts, g.neuron_bytes, 8)]
                for g in groups
            ]
        )
        assert policy.objective == float(coeffs @ np.ones(coeffs.size))
        assert policy.solver_name == "ilp"

    def test_budget_one_batch_short_calls_highs(self, rng, milp_calls):
        groups = make_groups(rng, n_groups=3, n_neurons=64)
        total = sum(g.total_bytes for g in groups)
        budget = total - 8 * 1e6
        policy = solve_ilp(groups, PC_HIGH, budget, options=SolverOptions(batch_size=8))
        assert len(milp_calls) == 1
        assert_feasible(policy, groups, budget)
        assert sum(int(mask.sum()) for mask in policy.gpu_masks) == 3 * 64 - 8

    def test_binding_cpu_row_calls_highs(self, rng, milp_calls):
        # GPU and CPU both hold exactly their budgets: one batch stays home.
        groups = make_groups(rng, n_groups=2, n_neurons=64)
        total = sum(g.total_bytes for g in groups)
        batch_bytes = 8 * 1e6
        policy = solve_ilp(
            groups, PC_HIGH, total - batch_bytes, cpu_budget_bytes=batch_bytes,
            options=SolverOptions(batch_size=8),
        )
        assert len(milp_calls) == 1
        assert_feasible(policy, groups, total - batch_bytes, batch_bytes)
        assert policy.gpu_bytes == pytest.approx(total - batch_bytes)

    def test_group_below_its_threshold_stays_on_cpu(self, rng, milp_calls):
        # 2e4-byte neurons need C_l = 77 on the GPU; a 64-neuron group can
        # never reach it, so the all-GPU point is infeasible.
        groups = make_groups(rng, n_groups=2, n_neurons=64)
        small = NeuronGroup(name="small", impacts=rng.random(64), neuron_bytes=2e4)
        assert communication_threshold(small, PC_HIGH) > small.n_neurons
        total = sum(g.total_bytes for g in groups) + small.total_bytes
        policy = solve_ilp(
            groups + [small], PC_HIGH, 2 * total, options=SolverOptions(batch_size=8)
        )
        assert len(milp_calls) == 1
        assert_feasible(policy, groups + [small], 2 * total)
        assert not policy.mask("small").any()
        assert all(policy.mask(g.name).all() for g in groups)
