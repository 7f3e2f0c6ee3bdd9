"""Analytic kernel cost model (roofline + launch overhead).

Every Neo / baseline kernel reports a :class:`KernelCost`: how many FLOPs it
places on each compute component, how many bytes it moves through global
memory, and how many kernel launches it needs.  Time on a device follows a
roofline: ``launches * launch_us + max(compute_time, memory_time)``, with
the compute side serialised across components *within* one kernel (streams
overlap components across kernels -- see :mod:`repro.gpu.trace`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .device import DeviceSpec
from .memory_model import TrafficProfile, extra_launches, hier_memory_time_s
from .fragments import (
    FP64_FRAGMENT,
    FragmentShape,
    best_int8_fragment,
    fragment_ops,
)
from .tensorcore import plan_fp64_split, plan_int8_split

#: FP64-equivalent instruction cost of one modular multiply-accumulate on
#: CUDA cores: wide integer mul.lo/mul.hi pairs plus Barrett/Montgomery
#: reduction come to roughly a dozen issue slots per 36-60-bit MAC.
CUDA_MODMUL_FLOPS = 12.0

#: FP64-equivalent cost of one element-wise split/merge/reorder step.
ELEMENTWISE_FLOPS = 2.0

#: Effective cap on redundant global-memory re-reads.  The paper's traffic
#: analysis (Figs. 2/15) counts every logical re-read; in the *time* model
#: the L2 cache absorbs part of that redundancy, so the DRAM amplification
#: of a poor-reuse kernel saturates around this factor.
CACHE_REREAD_CAP = 8.0

#: Bytes of one stored polynomial coefficient (64-bit words for WordSize > 32).
def word_bytes(wordsize: int) -> int:
    """Storage bytes per coefficient for a given WordSize."""
    if wordsize <= 0:
        raise ValueError("wordsize must be positive")
    return 4 if wordsize <= 32 else 8


@dataclass(frozen=True)
class KernelCost:
    """Resource usage of one GPU kernel (or a fused group of kernels)."""

    name: str
    cuda_flops: float = 0.0
    tcu_fp64_flops: float = 0.0
    tcu_int8_ops: float = 0.0
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    #: Kernel launches.  Fractional values model launch overhead amortised
    #: over fractional repetitions (``scaled``); a true no-op carries 0.
    launches: float = 1
    #: Optional reuse profile for the hierarchical memory model.  ``None``
    #: means a streaming kernel (no redundant traffic beyond the recorded
    #: bytes).  Ignored entirely by devices with ``memory_model="flat"``,
    #: so the default pricing is bit-identical to the pre-hierarchy model.
    traffic: Optional[TrafficProfile] = None

    # -- timing ----------------------------------------------------------------

    def compute_time_s(self, device: DeviceSpec) -> float:
        """Serialised compute time over all components, seconds."""
        time = 0.0
        if self.cuda_flops:
            time += self.cuda_flops / device.cuda_fp64_flops
        if self.tcu_fp64_flops:
            if device.tcu_fp64_flops == 0:
                raise ValueError(f"{device.name} has no FP64 tensor cores")
            time += self.tcu_fp64_flops / device.tcu_fp64_flops
        if self.tcu_int8_ops:
            if device.tcu_int8_ops == 0:
                raise ValueError(f"{device.name} has no INT8 tensor cores")
            time += self.tcu_int8_ops / device.tcu_int8_ops
        return time

    def memory_time_s(self, device: DeviceSpec) -> float:
        """Global-memory transfer time, seconds.

        Devices with ``memory_model="hier"`` split the traffic across the
        L2/HBM tiers from the kernel's :class:`TrafficProfile`; flat
        devices (the default) price the recorded bytes at HBM bandwidth
        exactly as before.
        """
        if device.memory_model == "hier":
            return hier_memory_time_s(
                self.bytes_read + self.bytes_written, self.traffic, device
            )
        return (self.bytes_read + self.bytes_written) / device.memory_bytes_per_s

    def effective_launches(self, device: DeviceSpec) -> float:
        """Launches including tiled-execution launches under ``hier``."""
        if device.memory_model == "hier":
            return self.launches + extra_launches(self.traffic)
        return self.launches

    def time_s(self, device: DeviceSpec) -> float:
        """Roofline execution time on `device`, seconds."""
        if device.memory_model == "hier":
            overhead = self.effective_launches(device) * device.kernel_launch_us * 1e-6
        else:
            overhead = self.launches * device.kernel_launch_us * 1e-6
        return overhead + max(self.compute_time_s(device), self.memory_time_s(device))

    # -- algebra -----------------------------------------------------------------

    def scaled(self, factor: float, name: Optional[str] = None) -> "KernelCost":
        """The cost of running this kernel `factor` times.

        Launches scale linearly (no rounding, no floor): a zero-launch
        placeholder stays launch-free, and ``scaled(a).scaled(b)`` equals
        ``scaled(a * b)`` exactly.
        """
        return KernelCost(
            name=name or self.name,
            cuda_flops=self.cuda_flops * factor,
            tcu_fp64_flops=self.tcu_fp64_flops * factor,
            tcu_int8_ops=self.tcu_int8_ops * factor,
            bytes_read=self.bytes_read * factor,
            bytes_written=self.bytes_written * factor,
            launches=self.launches * factor,
            traffic=self.traffic.scaled(factor) if self.traffic else None,
        )

    def merged(self, other: "KernelCost", name: Optional[str] = None) -> "KernelCost":
        """Back-to-back execution of two kernels (launches add)."""
        if self.traffic is not None:
            traffic = self.traffic.merged(other.traffic)
        else:
            traffic = other.traffic
        return KernelCost(
            name=name or f"{self.name}+{other.name}",
            cuda_flops=self.cuda_flops + other.cuda_flops,
            tcu_fp64_flops=self.tcu_fp64_flops + other.tcu_fp64_flops,
            tcu_int8_ops=self.tcu_int8_ops + other.tcu_int8_ops,
            bytes_read=self.bytes_read + other.bytes_read,
            bytes_written=self.bytes_written + other.bytes_written,
            launches=self.launches + other.launches,
            traffic=traffic,
        )

    def fused_with(self, other: "KernelCost", saved_bytes: float, name: Optional[str] = None) -> "KernelCost":
        """Kernel fusion (Section 4.6): one launch, intermediates stay in
        shared memory so `saved_bytes` of global traffic disappear."""
        merged = self.merged(other, name=name)
        saved = min(saved_bytes, merged.bytes_read + merged.bytes_written)
        read_saved = min(saved / 2, merged.bytes_read)
        write_saved = min(saved - read_saved, merged.bytes_written)
        return replace(
            merged,
            name=name or f"fused({self.name},{other.name})",
            bytes_read=merged.bytes_read - read_saved,
            bytes_written=merged.bytes_written - write_saved,
            launches=1,
        )


def zero_cost(name: str) -> KernelCost:
    """A named kernel with no resource usage (placeholder for no-ops)."""
    return KernelCost(name=name, launches=0)


# ---------------------------------------------------------------------------
# GEMM cost builders
# ---------------------------------------------------------------------------


def gemm_cost_cuda(
    name: str, m: int, n: int, k: int, wordsize: int, include_io: bool = True
) -> KernelCost:
    """Modular GEMM executed on CUDA cores (one modmul-add per MAC)."""
    wb = word_bytes(wordsize)
    return KernelCost(
        name=name,
        cuda_flops=m * n * k * CUDA_MODMUL_FLOPS,
        bytes_read=(m * k + k * n) * wb if include_io else 0.0,
        bytes_written=m * n * wb if include_io else 0.0,
    )


def gemm_cost_tcu_fp64(
    name: str, m: int, n: int, k: int, wordsize: int, include_io: bool = True
) -> KernelCost:
    """Modular GEMM on FP64 tensor cores via bit-sliced plane products.

    Includes the CUDA-core split/merge work (Step 1 / postprocessing of
    Fig. 11) and the padded-fragment waste of the 8x8x4 shape.
    """
    plan = plan_fp64_split(wordsize, wordsize, k)
    frags = fragment_ops(m, n, k, FP64_FRAGMENT)
    tcu_flops = frags * FP64_FRAGMENT.flops * plan.products
    split_elems = plan.a_planes * m * k + plan.b_planes * k * n
    merge_elems = plan.products * m * n + m * n  # weighted adds + reduction
    wb = word_bytes(wordsize)
    return KernelCost(
        name=name,
        cuda_flops=(split_elems + merge_elems) * ELEMENTWISE_FLOPS,
        tcu_fp64_flops=tcu_flops,
        bytes_read=(m * k + k * n) * wb if include_io else 0.0,
        bytes_written=m * n * wb if include_io else 0.0,
    )


def gemm_cost_tcu_int8(
    name: str,
    m: int,
    n: int,
    k: int,
    wordsize: int,
    shape: Optional[FragmentShape] = None,
    include_io: bool = True,
) -> KernelCost:
    """Modular GEMM on INT8 tensor cores (TensorFHE's Booth-split scheme)."""
    plan = plan_int8_split(wordsize, wordsize)
    if shape is None:
        shape = best_int8_fragment(m, n, k)
    frags = fragment_ops(m, n, k, shape)
    int8_ops = frags * shape.flops * plan.products
    split_elems = plan.a_planes * m * k + plan.b_planes * k * n
    merge_elems = plan.products * m * n + m * n
    wb = word_bytes(wordsize)
    return KernelCost(
        name=name,
        cuda_flops=(split_elems + merge_elems) * ELEMENTWISE_FLOPS,
        tcu_int8_ops=int8_ops,
        bytes_read=(m * k + k * n) * wb if include_io else 0.0,
        bytes_written=m * n * wb if include_io else 0.0,
    )


def elementwise_cost(
    name: str,
    elements: float,
    wordsize: int,
    flops_per_element: float = CUDA_MODMUL_FLOPS,
    reads_per_element: float = 2.0,
    writes_per_element: float = 1.0,
) -> KernelCost:
    """An element-wise CUDA-core kernel (ModMUL / ModADD / AUTO / reorder)."""
    wb = word_bytes(wordsize)
    return KernelCost(
        name=name,
        cuda_flops=elements * flops_per_element,
        bytes_read=elements * reads_per_element * wb,
        bytes_written=elements * writes_per_element * wb,
    )
