"""Cluster-wide DSM facade: allocation, node agents, wiring.

One :class:`DsmSystem` per cluster.  It owns the shared-pool layout (a bump
allocator over the page pool), creates one :class:`DsmNode` per node, and
registers the protocol handlers on each node's communication thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.dsm.config import DsmConfig, PARADE_DSM
from repro.dsm.node import DsmNode


@dataclass(frozen=True)
class Segment:
    """A named allocation in the shared pool."""

    name: str
    addr: int
    nbytes: int
    object_granularity: bool

    @property
    def end(self) -> int:
        return self.addr + self.nbytes


class DsmSystem:
    """The software DSM spanning the cluster."""

    def __init__(self, cluster, comm_threads, config: Optional[DsmConfig] = None):
        self.cluster = cluster
        self.config = config or PARADE_DSM
        page_size = cluster.config.page_size
        self.page_size = page_size
        self.n_pages = max(1, self.config.pool_bytes // page_size)
        self.stats_home_migrations = 0

        self.nodes: List[DsmNode] = [
            DsmNode(self, node, self.config) for node in cluster.nodes
        ]
        for dn, ct in zip(self.nodes, comm_threads):
            ct.register("dsm", dn.handle_dsm)
            ct.register("bar", dn.handle_barrier)
            ct.register("lk", dn.handle_lock)

        self._brk = 0
        self.segments: Dict[str, Segment] = {}

    # -- allocation -------------------------------------------------------
    def alloc(
        self,
        nbytes: int,
        name: str = "",
        align: int = 8,
        page_align: bool = False,
        object_granularity: bool = False,
    ) -> Segment:
        """Bump-allocate *nbytes* of shared memory.

        ``object_granularity=True`` places the segment under the update
        protocol (always valid everywhere; consistency via collectives) —
        used by the runtime for small synchronisation variables (§5.2.1).
        ``page_align=True`` pads to a page boundary; leaving it False lets
        distinct arrays share pages, i.e. false sharing is representable.
        """
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        # Object-granularity segments take whole pages: sharing a page with
        # HLRC data would exempt that data from the invalidate protocol.
        if object_granularity:
            page_align = True
        align = self.page_size if page_align else max(1, align)
        addr = (self._brk + align - 1) // align * align
        end = addr + nbytes
        if object_granularity:
            end = (end + self.page_size - 1) // self.page_size * self.page_size
        if end > self.n_pages * self.page_size:
            raise MemoryError(
                f"shared pool exhausted: need {end} bytes, pool is "
                f"{self.n_pages * self.page_size} (raise DsmConfig.pool_bytes)"
            )
        self._brk = end
        if not name:
            name = f"seg@{addr:#x}"
        if name in self.segments:
            raise ValueError(f"duplicate segment name {name!r}")
        seg = Segment(name, addr, nbytes, object_granularity)
        self.segments[name] = seg
        if object_granularity:
            for dn in self.nodes:
                dn.mark_object_pages(addr, nbytes)
        return seg

    def node(self, node_id: int) -> DsmNode:
        return self.nodes[node_id]

    # -- whole-system stats -------------------------------------------------
    def stats(self) -> Dict[str, int]:
        agg: Dict[str, int] = {}
        for dn in self.nodes:
            for k, v in dn.stats.as_dict().items():
                agg[k] = agg.get(k, 0) + v
        agg["home_migrations"] = self.stats_home_migrations
        return agg

    def check_coherence(self) -> None:
        """Debug invariant: after a global barrier, every valid copy of a
        page matches the home's copy bytewise."""
        import numpy as np
        from repro.dsm.states import PageState

        for p in range(self._brk // self.page_size + 1):
            if p >= self.n_pages:
                break
            home = self.nodes[0].home[p]
            home_data = self.nodes[home]._page_view(p)
            for dn in self.nodes:
                if dn.state[p] in (PageState.READ_ONLY, PageState.DIRTY):
                    if not np.array_equal(dn._page_view(p), home_data):
                        raise AssertionError(
                            f"incoherent page {p}: node {dn.id} differs from home {home}"
                        )
