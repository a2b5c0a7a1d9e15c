"""Per-node DSM protocol agent.

One :class:`DsmNode` per cluster node.  It owns the node's copy of the
shared pool (physical frames + application address space) and the page
table (states, homes, twins); the protocol is split by concern, one mixin
module each, over the shared state of :class:`DsmNodeBase`:

* :mod:`~repro.dsm.access` — the SIGSEGV-style fault service: one
  protection scan plans an access's faulting pages, serviced lowest first
  — fetch from home and atomic page update via a :mod:`repro.vm`
  strategy, or a local write-upgrade run — with the TRANSIENT/BLOCKED
  multithread states of Figure 5;
* :mod:`~repro.dsm.wire` — request/reply plumbing and the ``dsm``
  channel handler;
* :mod:`~repro.dsm.flush` — twins, diffs, closing an interval,
  invalidation;
* :mod:`~repro.dsm.barrier` — barrier arrival/departure with flushed
  diffs, piggybacked write notices and home migration (ParADE §5.2.2),
  the master role living on node 0, flat or as a tree;
* :mod:`~repro.dsm.locks` — the distributed lock manager + client; the
  client optionally busy-waits (KDSM);
* :mod:`~repro.dsm.intervals` — lazy-release-consistency intervals with
  vector timestamps: which writes a lock acquirer must learn about;
* :mod:`~repro.dsm.adaptive` — the adaptive-migration accelerator, one
  object per node (:attr:`DsmNodeBase.adaptive`), present only when
  ``DsmConfig.adaptive_migration`` is on.

All public operations are generators called from application-thread
processes; protocol service for *incoming* messages runs on the node's
communication thread (see :class:`repro.mpi.CommThread`).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set

import numpy as np

from repro.sim import Event
from repro.vm import (
    AddressSpace, PhysicalMemory, PROT_NONE, PROT_READ, PROT_RW, strategy_by_name,
    OS_PROFILES,
)
from repro.dsm.access import AccessMixin
from repro.dsm.adaptive import AdaptiveAccel
from repro.dsm.barrier import BarrierMixin
from repro.dsm.flush import FlushMixin
from repro.dsm.intervals import Intervals
from repro.dsm.locks import LockMixin
from repro.dsm.states import (
    KIND_HLRC, KIND_OBJECT, PageState, IllegalTransition, is_valid_transition,
)
from repro.dsm.stats import DsmNodeStats
from repro.dsm.wire import WireMixin
from repro.dsm.writenotice import WriteNotice


class DsmNodeBase:
    """The state every protocol concern of a node shares, and the page
    table's one writer."""

    def __init__(self, system, node, dsm_config):
        self.system = system
        self.node = node
        self.id = node.id
        self.sim = node.sim
        self.net = system.cluster.network
        self.config = dsm_config
        self.cluster_config = system.cluster.config
        self.page_size = self.cluster_config.page_size
        self.n_pages = system.n_pages
        self.n_nodes = n_nodes = system.cluster.n_nodes

        # Node-local copy of the shared pool, behind a protected app mapping.
        self.phys = PhysicalMemory(self.n_pages, self.page_size)
        self.space = AddressSpace(self.phys, name=f"app[{self.id}]")
        self.space.map_identity(self.n_pages, prot=PROT_NONE)

        profile = OS_PROFILES[dsm_config.os_profile]
        self.strategy = strategy_by_name(dsm_config.update_strategy, profile=profile)

        # Page table: master starts READ_ONLY everywhere, others INVALID (§5.2.3).
        initial = PageState.READ_ONLY if self.id == 0 else PageState.INVALID
        self.state: List[PageState] = [initial] * self.n_pages
        #: pages per state, indexed by ``PageState.idx``.  Created with the
        #: table and moved only by ``_write_state``, the one function that
        #: stores into ``state`` — every census reader (the trace counter,
        #: the metrics source) trusts it instead of rescanning the table.
        self.census: List[int] = [0] * len(PageState)
        self.census[initial.idx] = self.n_pages
        self.home: List[int] = [0] * self.n_pages
        self.kind: List[int] = [KIND_HLRC] * self.n_pages
        if self.id == 0:
            for p in range(self.n_pages):
                self.space.protect(p, PROT_READ)

        self.twins: Dict[int, np.ndarray] = {}
        self.dirty: Set[int] = set()
        self._page_waiters: Dict[int, Event] = {}

        # fast-path cache: ranges validated against self.space.version;
        # any protect/map (every state transition goes through protect)
        # bumps the version and empties the cache lazily
        self._fast_version = -1
        self._fast_valid: Set[tuple] = set()

        # request/response plumbing
        self._pending: Dict[int, Event] = {}
        self._req_seq = itertools.count()

        # barrier state (master only uses _bar_arrivals)
        self._barrier_epoch = 0
        self._bar_arrivals: Dict[int, Dict[int, List[WriteNotice]]] = {}
        self._bar_wait: Dict[int, Event] = {}
        # highest epoch whose release/departure has passed through this
        # node — arrival frames at or below it are late duplicates and are
        # dropped instead of resurrecting a ghost _bar_arrivals entry that
        # could never complete
        self._bar_released = -1
        # hierarchical barrier (DsmConfig.barrier_fanin >= 2): k-ary tree
        # rooted at the master; arrivals climb it with in-tree notice
        # merging, departures fan out down it
        self._fanin = f = dsm_config.barrier_fanin
        self._bar_parent = (self.id - 1) // f if f and self.id else None
        self._bar_children = [
            c for c in range(f * self.id + 1, f * self.id + f + 1) if c < n_nodes
        ]
        # epoch -> partially folded subtree aggregate:
        # {"n": contributions seen, "writers": {page: {writer}},
        #  "bytes": {page: {writer: diff bytes}} (adaptive only),
        #  "fetched": {node: (page, ...)} (adaptive push interest)}
        self._bar_agg: Dict[int, dict] = {}

        # lock manager state (for locks homed here: lock_id % n_nodes)
        self._lock_queue: Dict[int, List] = {}
        #: intervals, vector and interval logs, this node's and its locks'
        self.intervals = Intervals(self.sim, self.id, n_nodes)

        # pages whose invalidation arrived while a fetch was in flight
        # (TRANSIENT/BLOCKED); drained by the fetching thread, which
        # discards the stale update and retries.
        self._pending_inval: Set[int] = set()

        # protocol accelerator (docs/PERFORMANCE.md "Protocol optimizations")
        self.adaptive: Optional[AdaptiveAccel] = (
            AdaptiveAccel(self) if dsm_config.adaptive_migration else None
        )
        #: wire bytes per notice record: sized notices carry diff byte counts
        self._notice_nbytes = (
            WriteNotice.NBYTES_SIZED if self.adaptive is not None else WriteNotice.NBYTES
        )
        #: the home-migration rule, fixed for the run (§5.2.2): byte-weighted
        #: dominant writer, eager sole writer, or none
        self._home_moves = (
            self.adaptive.home_moves if self.adaptive is not None
            else self._sole_writer_moves if dsm_config.home_migration
            else lambda writers_by_page: ()
        )

        self.stats = DsmNodeStats()

    # -- strategy executor interface -----------------------------------
    def busy(self, seconds: float):
        yield from self.node.busy_cpu(seconds)

    # ------------------------------------------------------------------
    # page table helpers
    # ------------------------------------------------------------------
    def _write_state(self, page: int, new: PageState) -> None:
        """The single writer of ``state``: the store and the census move
        are one step, so the maintained count cannot drift from the table
        (``tests/test_dsm_units.py`` scans ``src/repro`` for any other)."""
        census = self.census
        census[self.state[page].idx] -= 1
        census[new.idx] += 1
        self.state[page] = new

    def _set_state(self, page: int, new: PageState, reason: str) -> None:
        old = self.state[page]
        if old is new:
            return
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            # stated before the legality check, so the sanitizer sees
            # (and names) the transition that is about to raise
            pb.instant(
                "dsm.page", "page-state", node=self.id,
                page=page, src=old.label, dst=new.label, reason=reason,
            )
        if not is_valid_transition(old, new, reason):
            raise IllegalTransition(page, old, new, reason)
        self._write_state(page, new)

    def page_range(self, addr: int, size: int) -> range:
        if size <= 0:
            return range(0)
        first = addr // self.page_size
        last = (addr + size - 1) // self.page_size
        if last >= self.n_pages:
            raise IndexError(
                f"shared access [{addr}, {addr+size}) beyond pool of {self.n_pages} pages"
            )
        return range(first, last + 1)

    def mark_object_pages(self, addr: int, size: int) -> None:
        """Move pages to object-granularity management: always valid on all
        nodes, kept consistent by runtime collectives (entry-consistency
        style, §5.2.1).  Called at allocation time by the runtime."""
        for p in self.page_range(addr, size):
            self.kind[p] = KIND_OBJECT
            self._write_state(p, PageState.READ_ONLY)
            self.space.protect(p, PROT_RW)
            self.twins.pop(p, None)
            self.dirty.discard(p)

    def raw_view(self, addr: int, size: int) -> np.ndarray:
        """Unchecked zero-copy view of the local pool (uint8)."""
        return self.phys.buffer[addr : addr + size]

    def _page_view(self, page: int) -> np.ndarray:
        return self.phys.frame_view(page)


class DsmNode(AccessMixin, WireMixin, FlushMixin, BarrierMixin, LockMixin, DsmNodeBase):
    """DSM agent for one node; see module docstring."""
