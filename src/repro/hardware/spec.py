"""Hardware specifications for the performance substrate.

The paper evaluates PowerInfer on two PCs (PC-High with an RTX 4090, PC-Low
with an RTX 2080Ti) and compares against a server-grade A100.  This module
captures those machines as declarative specs: memory capacities and
bandwidths, compute throughput, interconnect bandwidth/latency, and per-op
dispatch overheads.  The roofline cost model (:mod:`repro.hardware.costmodel`)
turns these numbers into operator latencies.

All bandwidths are bytes/second, capacities bytes, times seconds, compute
throughput FLOP/s — declared with the :mod:`repro.units` dimension
aliases so ``repro check --only lint`` can verify the arithmetic end to end.
Presets use the figures published in the paper (Section 8.1)
supplemented with public datasheet numbers where the paper is silent
(e.g. GPU FLOP rates).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.units import (
    Bytes,
    BytesPerSecond,
    FlopsPerSecond,
    Ratio,
    Seconds,
    Watts,
)

GIB = 1024**3
GB = 10**9

__all__ = [
    "DeviceKind",
    "DeviceSpec",
    "LinkSpec",
    "MachineSpec",
    "PC_HIGH",
    "PC_LOW",
    "A100_SERVER",
    "MACHINE_PRESETS",
]


class DeviceKind:
    """Symbolic names for the two processing-unit classes in the paper."""

    GPU = "gpu"
    CPU = "cpu"

    ALL = (GPU, CPU)


@dataclass(frozen=True)
class DeviceSpec:
    """One processing unit (a GPU or a CPU socket).

    Attributes:
        name: Human-readable identifier (e.g. ``"rtx4090"``).
        kind: ``DeviceKind.GPU`` or ``DeviceKind.CPU``.
        memory_capacity: Usable memory in bytes.
        memory_bandwidth: Peak DRAM/HBM bandwidth in bytes/s.
        compute_flops: Peak dense FP16/FP32 throughput in FLOP/s.
        launch_overhead: Fixed cost of dispatching one operator (kernel
            launch on GPU, thread-pool wakeup on CPU), seconds.
        memory_efficiency: Achievable fraction of peak bandwidth for
            streaming GEMV-style access (0 < x <= 1).
        idle_watts: Board/package power when no task is running.
        busy_watts: Sustained power under a memory-bound streaming
            workload (bandwidth saturated, ALUs mostly waiting).
        peak_watts: Power limit hit by compute-bound dense work (the
            datasheet TDP/TGP).

    The three watt figures feed :mod:`repro.telemetry.power` only; they
    are never read by the cost model, so two specs differing solely in
    power produce bit-identical schedules.
    """

    name: str
    kind: str
    memory_capacity: Bytes
    memory_bandwidth: BytesPerSecond
    compute_flops: FlopsPerSecond
    launch_overhead: Seconds = 0.0
    memory_efficiency: Ratio = 1.0
    idle_watts: Watts = 15.0
    busy_watts: Watts = 120.0
    peak_watts: Watts = 150.0

    def __post_init__(self) -> None:
        if self.kind not in DeviceKind.ALL:
            raise ValueError(f"unknown device kind: {self.kind!r}")
        if self.memory_capacity <= 0:
            raise ValueError("memory_capacity must be positive")
        if self.memory_bandwidth <= 0:
            raise ValueError("memory_bandwidth must be positive")
        if self.compute_flops <= 0:
            raise ValueError("compute_flops must be positive")
        if not 0.0 < self.memory_efficiency <= 1.0:
            raise ValueError("memory_efficiency must be in (0, 1]")
        if self.launch_overhead < 0:
            raise ValueError("launch_overhead must be non-negative")
        if not 0.0 <= self.idle_watts <= self.busy_watts <= self.peak_watts:
            raise ValueError(
                "power envelope must satisfy 0 <= idle_watts <= busy_watts "
                f"<= peak_watts (got {self.idle_watts}/{self.busy_watts}"
                f"/{self.peak_watts})"
            )

    @property
    def effective_bandwidth(self) -> BytesPerSecond:
        """Sustained streaming bandwidth in bytes/s."""
        return self.memory_bandwidth * self.memory_efficiency

    def with_memory_capacity(self, capacity: Bytes) -> "DeviceSpec":
        """Return a copy with a different memory capacity."""
        return dataclasses.replace(self, memory_capacity=capacity)


@dataclass(frozen=True)
class LinkSpec:
    """An interconnect between two devices (PCIe in the paper).

    Attributes:
        name: Identifier, e.g. ``"pcie4"``.
        bandwidth: Unidirectional peak bandwidth in bytes/s.
        latency: Per-message latency in seconds (DMA setup + propagation).
        efficiency: Achievable fraction of peak for bulk DMA streaming.
        um_efficiency: Achievable fraction of peak under CUDA Unified
            Memory page-fault-driven access (far lower than DMA — the
            penalty behind the DejaVu-UM baseline of paper Figure 4).
        idle_watts: PHY/switch power with no transfer in flight.
        busy_watts: Power while a DMA stream saturates the link.  Like
            the device watt fields, read only by the energy meter —
            never by the cost model.
    """

    name: str
    bandwidth: BytesPerSecond
    latency: Seconds
    efficiency: Ratio = 0.8
    um_efficiency: Ratio = 0.15
    idle_watts: Watts = 2.0
    busy_watts: Watts = 8.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        if not 0.0 < self.um_efficiency <= 1.0:
            raise ValueError("um_efficiency must be in (0, 1]")
        if not 0.0 <= self.idle_watts <= self.busy_watts:
            raise ValueError(
                "power envelope must satisfy 0 <= idle_watts <= busy_watts "
                f"(got {self.idle_watts}/{self.busy_watts})"
            )

    @property
    def effective_bandwidth(self) -> BytesPerSecond:
        """Sustained DMA bandwidth in bytes/s."""
        return self.bandwidth * self.efficiency

    def transfer_time(self, nbytes: Bytes, unified_memory: bool = False) -> Seconds:
        """Time to move ``nbytes`` across the link, seconds."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        eff = self.um_efficiency if unified_memory else self.efficiency
        return self.latency + nbytes / (self.bandwidth * eff)


@dataclass(frozen=True)
class MachineSpec:
    """A complete machine: one GPU, one CPU, and the link between them.

    ``sync_overhead`` is the paper's :math:`T_{sync}` — the fixed cost of one
    intra-layer synchronization between CPU and GPU executors (Section 6.3.1).
    """

    name: str
    gpu: DeviceSpec
    cpu: DeviceSpec
    link: LinkSpec
    sync_overhead: Seconds = 20e-6

    def __post_init__(self) -> None:
        if self.gpu.kind != DeviceKind.GPU:
            raise ValueError("gpu field must have kind DeviceKind.GPU")
        if self.cpu.kind != DeviceKind.CPU:
            raise ValueError("cpu field must have kind DeviceKind.CPU")
        if self.sync_overhead < 0:
            raise ValueError("sync_overhead must be non-negative")

    def device(self, kind: str) -> DeviceSpec:
        """Look up the device of the given :class:`DeviceKind`."""
        if kind == DeviceKind.GPU:
            return self.gpu
        if kind == DeviceKind.CPU:
            return self.cpu
        raise KeyError(f"unknown device kind: {kind!r}")

    @property
    def total_memory(self) -> Bytes:
        """Combined GPU + CPU memory capacity in bytes."""
        return self.gpu.memory_capacity + self.cpu.memory_capacity


def _cpu_avx2_flops(cores: int, ghz: float) -> FlopsPerSecond:
    """Peak FP32 AVX2 throughput: 2 FMA ports x 8 lanes x 2 flops/FMA."""
    return cores * ghz * 1e9 * 2 * 8 * 2


# PC-High (paper Section 8.1): i9-13900K (8 P-cores @ 5.4 GHz, 67.2 GB/s
# DRAM, 192 GB) + RTX 4090 (24 GB, 1 TB/s, PCIe 4.0 x16 = 64 GB/s).
# Watt figures are datasheet numbers: 4090 TGP 450 W (memory-bound GEMV
# draws ~350 W), 13900K PL1/PL2 125/253 W.
PC_HIGH = MachineSpec(
    name="pc-high",
    gpu=DeviceSpec(
        name="rtx4090",
        kind=DeviceKind.GPU,
        memory_capacity=24 * GIB,
        memory_bandwidth=1008 * GB,
        compute_flops=82.6e12,
        launch_overhead=8e-6,
        memory_efficiency=0.8,
        idle_watts=22.0,
        busy_watts=350.0,
        peak_watts=450.0,
    ),
    cpu=DeviceSpec(
        name="i9-13900k",
        kind=DeviceKind.CPU,
        memory_capacity=192 * GIB,
        memory_bandwidth=67.2 * GB,
        compute_flops=_cpu_avx2_flops(cores=8, ghz=5.4),
        launch_overhead=2e-6,
        memory_efficiency=0.85,
        idle_watts=15.0,
        busy_watts=160.0,
        peak_watts=253.0,
    ),
    link=LinkSpec(
        name="pcie4-x16",
        bandwidth=64 * GB,
        latency=10e-6,
        idle_watts=3.0,
        busy_watts=12.0,
    ),
    sync_overhead=25e-6,
)

# PC-Low (paper Section 8.1): i7-12700K (8 P-cores @ 4.9 GHz, 38.4 GB/s
# DRAM, 64 GB) + RTX 2080Ti (11 GB, 616 GB/s, PCIe 3.0 x16 = 32 GB/s).
# Watts: 2080Ti TGP 250 W, 12700K PL1/PL2 125/190 W.
PC_LOW = MachineSpec(
    name="pc-low",
    gpu=DeviceSpec(
        name="rtx2080ti",
        kind=DeviceKind.GPU,
        memory_capacity=11 * GIB,
        memory_bandwidth=616 * GB,
        compute_flops=26.9e12,
        launch_overhead=8e-6,
        memory_efficiency=0.8,
        idle_watts=16.0,
        busy_watts=190.0,
        peak_watts=250.0,
    ),
    cpu=DeviceSpec(
        name="i7-12700k",
        kind=DeviceKind.CPU,
        memory_capacity=64 * GIB,
        memory_bandwidth=38.4 * GB,
        compute_flops=_cpu_avx2_flops(cores=8, ghz=4.9),
        launch_overhead=2e-6,
        memory_efficiency=0.85,
        idle_watts=12.0,
        busy_watts=125.0,
        peak_watts=190.0,
    ),
    link=LinkSpec(
        name="pcie3-x16",
        bandwidth=32 * GB,
        latency=12e-6,
        idle_watts=2.0,
        busy_watts=8.0,
    ),
    sync_overhead=35e-6,
)

# Server with a single 80 GB A100 (Section 8.3.4).  The host CPU barely
# matters for vLLM-style full-GPU inference but is modelled for completeness.
# Watts: A100 SXM TDP 400 W, EPYC 7742 TDP 225 W.
A100_SERVER = MachineSpec(
    name="a100-server",
    gpu=DeviceSpec(
        name="a100-80gb",
        kind=DeviceKind.GPU,
        memory_capacity=80 * GIB,
        memory_bandwidth=2039 * GB,
        compute_flops=312e12,
        launch_overhead=8e-6,
        memory_efficiency=0.8,
        idle_watts=50.0,
        busy_watts=310.0,
        peak_watts=400.0,
    ),
    cpu=DeviceSpec(
        name="epyc-7742",
        kind=DeviceKind.CPU,
        memory_capacity=512 * GIB,
        memory_bandwidth=190 * GB,
        compute_flops=_cpu_avx2_flops(cores=32, ghz=2.25),
        launch_overhead=2e-6,
        memory_efficiency=0.85,
        idle_watts=65.0,
        busy_watts=180.0,
        peak_watts=225.0,
    ),
    link=LinkSpec(
        name="pcie4-x16",
        bandwidth=64 * GB,
        latency=10e-6,
        idle_watts=3.0,
        busy_watts=12.0,
    ),
    sync_overhead=25e-6,
)

MACHINE_PRESETS = {
    PC_HIGH.name: PC_HIGH,
    PC_LOW.name: PC_LOW,
    A100_SERVER.name: A100_SERVER,
}
