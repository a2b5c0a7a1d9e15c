"""Cluster configuration.

Defaults mirror the paper's testbed (§6): four dual-550 MHz and four
dual-600 MHz Pentium III nodes, cLAN VIA interconnect, Linux 2.4 SMP
kernel.  Memory is not modelled here: the shared pool's size is
``DsmConfig.pool_bytes``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.cluster.interconnect import Interconnect, GIGANET_VIA

#: Paper testbed CPU speeds, node 0..7 (MHz).
PAPER_CPU_MHZ: Tuple[int, ...] = (550, 550, 550, 550, 600, 600, 600, 600)

#: Reference speed all workload cost models are expressed against.
REFERENCE_MHZ = 600


@dataclass(frozen=True)
class ClusterConfig:
    """Immutable description of a simulated cluster."""

    n_nodes: int = 8
    cpus_per_node: int = 2
    #: per-node CPU clock in MHz; padded/truncated from PAPER_CPU_MHZ
    cpu_mhz: Tuple[int, ...] = PAPER_CPU_MHZ
    interconnect: Interconnect = GIGANET_VIA
    page_size: int = 4096
    #: virtual seconds per abstract "work unit" at REFERENCE_MHZ.  Workloads
    #: charge compute time in work units (≈ one double-precision flop with
    #: memory traffic folded in); 600 MHz P-III ≈ 100 Mflop/s sustained.
    seconds_per_work_unit: float = 1.0e-8
    #: fixed CPU cost of taking a page protection fault + entering the
    #: SIGSEGV handler (§5.1) — measured ~10 µs on Linux 2.4 / P-III.
    fault_overhead: float = 10e-6
    #: CPU cost of computing a diff for one page (word compare)
    diff_overhead: float = 12e-6
    #: CPU cost of applying a diff at the home
    diff_apply_overhead: float = 4e-6
    #: CPU cost of an mprotect-style permission change
    mprotect_overhead: float = 2e-6

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.cpus_per_node < 1:
            raise ValueError(f"cpus_per_node must be >= 1, got {self.cpus_per_node}")
        if self.page_size < 64 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page_size must be a power of two >= 64, got {self.page_size}")
        # Normalise cpu_mhz to exactly n_nodes entries.
        mhz = tuple(self.cpu_mhz)
        if len(mhz) < self.n_nodes:
            mhz = tuple(mhz[i % len(mhz)] for i in range(self.n_nodes))
        elif len(mhz) > self.n_nodes:
            mhz = mhz[: self.n_nodes]
        object.__setattr__(self, "cpu_mhz", mhz)

    def speed_factor(self, node_id: int) -> float:
        """CPU speed relative to the reference clock (<= 1 for 550 MHz)."""
        return self.cpu_mhz[node_id] / REFERENCE_MHZ

    def compute_seconds(self, work_units: float, node_id: int) -> float:
        """Virtual seconds for *work_units* of computation on *node_id*."""
        return work_units * self.seconds_per_work_unit / self.speed_factor(node_id)

    def _is_paper_cpu_pattern(self) -> bool:
        """Does ``cpu_mhz`` look like the paper testbed cycle, possibly
        truncated/padded by ``__post_init__``?  Such configs re-expand from
        the canonical 8-entry tuple on resize instead of cycling the
        truncated prefix (``with_nodes(4).with_nodes(16)`` must not turn
        the cluster into sixteen 550 MHz nodes)."""
        return self.cpu_mhz == tuple(
            PAPER_CPU_MHZ[i % len(PAPER_CPU_MHZ)] for i in range(self.n_nodes)
        )

    def with_nodes(self, n_nodes: int) -> "ClusterConfig":
        """Copy with a different node count (used by sweeps)."""
        mhz = PAPER_CPU_MHZ if self._is_paper_cpu_pattern() else self.cpu_mhz
        return replace(self, n_nodes=n_nodes, cpu_mhz=mhz)

    def with_cpus(self, cpus_per_node: int) -> "ClusterConfig":
        """Copy with a different CPU count per node (uniprocessor kernel)."""
        return replace(self, cpus_per_node=cpus_per_node)
