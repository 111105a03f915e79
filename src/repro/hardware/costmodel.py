"""Roofline cost model mapping operator workloads to device latencies.

LLM token generation at small batch sizes is memory-bandwidth bound (paper
Section 6.3.1, Equation 5: the time to compute a neuron approximately equals
the time to read its weights once).  The cost model therefore charges each
operator

    ``launch_overhead + max(bytes_moved / effective_bandwidth,
                            flops / compute_throughput)``

which reduces to the paper's Equation 5 in the bandwidth-bound regime and
transitions to compute-bound behaviour at large batch sizes — exactly the
crossover the paper exploits in Figures 6 and 14.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.spec import DeviceSpec, LinkSpec
from repro.units import Bytes, Flops, Ratio, Seconds

__all__ = ["OpWork", "TaskCost", "CostModel", "COST_COMPONENTS"]

# The five places a simulated second can go.  Decompositions index by these
# names; their per-task sum always equals the task duration exactly.
COST_COMPONENTS = ("memory", "compute", "launch", "sync", "transfer")


@dataclass(frozen=True)
class OpWork:
    """Resource footprint of one operator invocation.

    Attributes:
        flops: Floating-point operations performed.
        bytes_read: Bytes read from device memory (weights + inputs).
        bytes_written: Bytes written to device memory (outputs).
    """

    flops: Flops = 0.0
    bytes_read: Bytes = 0.0
    bytes_written: Bytes = 0.0

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_read < 0 or self.bytes_written < 0:
            raise ValueError("OpWork fields must be non-negative")

    @property
    def bytes_total(self) -> Bytes:
        return self.bytes_read + self.bytes_written

    def __add__(self, other: "OpWork") -> "OpWork":
        return OpWork(
            flops=self.flops + other.flops,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
        )

    def scaled(self, factor: Ratio) -> "OpWork":
        """Scale all dimensions (e.g. by an activation fraction)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        return OpWork(
            flops=self.flops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
        )


@dataclass(frozen=True)
class TaskCost:
    """The roofline terms behind one task's duration, kept separable.

    Attribution and energy metering need more than a scalar latency: they
    need to know *why* the task costs what it costs, and which roofline
    side binds.  ``TaskCost`` records the cost model's own terms at
    pricing time:

    Attributes:
        flops: Floating-point work priced into ``compute_time``.
        bytes: Device-memory bytes (operators) or link bytes (transfers).
        mem_time: Full ``bytes / effective_bandwidth`` term (even when
            compute-bound — the roofline keeps both sides).
        compute_time: Full ``flops / compute_flops`` term.
        launch: Dispatch overhead charged (0 when elided).
        sync: Fixed synchronization overhead charged (paper's T_sync).
        transfer: Link latency + DMA/UM streaming time (transfers only).
    """

    flops: Flops = 0.0
    bytes: Bytes = 0.0
    mem_time: Seconds = 0.0
    compute_time: Seconds = 0.0
    launch: Seconds = 0.0
    sync: Seconds = 0.0
    transfer: Seconds = 0.0

    @property
    def duration(self) -> Seconds:
        """Task duration: the roofline max plus every fixed overhead.

        Matches :meth:`CostModel.op_time` / :meth:`CostModel.transfer_time`
        bit for bit for costs built by :meth:`CostModel.op_cost` /
        :meth:`CostModel.transfer_cost`.
        """
        return max(self.mem_time, self.compute_time) + self.launch + self.sync + self.transfer

    @property
    def bound(self) -> str:
        """Which roofline side binds: ``"memory"`` or ``"compute"``."""
        return "memory" if self.mem_time >= self.compute_time else "compute"

    def components(self) -> dict[str, Seconds]:
        """Duration split over :data:`COST_COMPONENTS`; sums to ``duration``.

        The roofline ``max`` term is attributed entirely to the binding
        side (a memory-bound operator's compute time is hidden under the
        memory streaming, and vice versa), so the five components add up
        to the task duration exactly.
        """
        binding = self.bound
        return {
            "memory": self.mem_time if binding == "memory" else 0.0,
            "compute": self.compute_time if binding == "compute" else 0.0,
            "launch": self.launch,
            "sync": self.sync,
            "transfer": self.transfer,
        }


class CostModel:
    """Latency estimates for operators and transfers on a given machine."""

    @staticmethod
    def op_time(
        work: OpWork, device: DeviceSpec, include_launch: bool = True
    ) -> Seconds:
        """Execution time of ``work`` on ``device`` in seconds."""
        if work.flops == 0 and work.bytes_total == 0:
            return device.launch_overhead if include_launch else 0.0
        mem_time = work.bytes_total / device.effective_bandwidth
        compute_time = work.flops / device.compute_flops
        base = max(mem_time, compute_time)
        return base + (device.launch_overhead if include_launch else 0.0)

    @staticmethod
    def transfer_time(nbytes: Bytes, link: LinkSpec) -> Seconds:
        """Time to move ``nbytes`` across ``link`` in seconds."""
        return link.transfer_time(nbytes)

    @staticmethod
    def op_cost(
        work: OpWork,
        device: DeviceSpec,
        include_launch: bool = True,
        sync: Seconds = 0.0,
    ) -> TaskCost:
        """The structured cost behind :meth:`op_time` (plus optional sync).

        ``TaskCost.duration`` equals ``sync + op_time(work, device,
        include_launch)`` exactly; engines attach the returned record to
        their :class:`~repro.hardware.events.SimTask` so traces stay
        decomposable.
        """
        return TaskCost(
            flops=work.flops,
            bytes=work.bytes_total,
            mem_time=work.bytes_total / device.effective_bandwidth,
            compute_time=work.flops / device.compute_flops,
            launch=device.launch_overhead if include_launch else 0.0,
            sync=sync,
        )

    @staticmethod
    def transfer_cost(
        nbytes: Bytes, link: LinkSpec, unified_memory: bool = False
    ) -> TaskCost:
        """The structured cost behind :meth:`transfer_time`."""
        return TaskCost(
            bytes=nbytes,
            transfer=link.transfer_time(nbytes, unified_memory=unified_memory),
        )

    @staticmethod
    def bandwidth_bound(work: OpWork, device: DeviceSpec) -> bool:
        """Whether the operator is limited by memory bandwidth."""
        mem_time = work.bytes_total / device.effective_bandwidth
        compute_time = work.flops / device.compute_flops
        return mem_time >= compute_time

    @staticmethod
    def neuron_time(neuron_bytes: Bytes, device: DeviceSpec) -> Seconds:
        """Paper Equation 5: per-neuron compute time ~= weight-read time."""
        if neuron_bytes < 0:
            raise ValueError("neuron_bytes must be non-negative")
        return neuron_bytes / device.effective_bandwidth
