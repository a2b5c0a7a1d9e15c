"""Per-node DSM protocol agent.

One :class:`DsmNode` per cluster node.  It owns the node's copy of the
shared pool (physical frames + application address space), the page table
(states, homes, twins), and implements:

* the SIGSEGV-style fault service: one protection scan plans an access's
  faulting pages, serviced lowest first — fetch from home and atomic page
  update via a :mod:`repro.vm` strategy, or a local write-upgrade run —
  with the TRANSIENT/BLOCKED multithread states of Figure 5;
* barrier arrival/departure with flushed diffs, piggybacked write notices
  and home migration (ParADE §5.2.2), the master role living on node 0;
* the distributed lock manager + client with lazy-release-consistency
  write-notice piggybacking; the client optionally busy-waits (KDSM).

All public operations are generators called from application-thread
processes; protocol service for *incoming* messages runs on the node's
communication thread (see :class:`repro.mpi.CommThread`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

import numpy as np

from repro.sim import AnyOf, Event
from repro.vm import (
    AddressSpace,
    PhysicalMemory,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    PROT_RW,
    strategy_by_name,
    LINUX_24,
    AIX_433,
)
from repro.dsm.states import PageState, IllegalTransition, is_valid_transition
from repro.dsm.diffs import EMPTY_DIFF, Diff, make_twin, compute_diff, apply_diff, diff_nbytes
from repro.dsm.writenotice import (
    WriteNotice,
    NoticeLog,
    dedupe_notices,
    fold_writer_bytes,
    fold_writer_sets,
    merge_notices,
    merge_notice_bytes,
)
from repro.sim.probe import (
    CAT_AUDIT,
    PH_BARRIER,
    PH_FAULT_FETCH,
    PH_FAULT_WORK,
    PH_FLUSH,
    PH_LOCK_WAIT,
    PH_PAGE_WAIT,
    bracket,
    waiting,
)

#: census counter-track keys, in ``PageState.idx`` order
_STATE_NAMES = tuple(st.name for st in PageState)

#: page kinds: HLRC-managed vs object-granularity (update protocol) regions
KIND_HLRC = 0
KIND_OBJECT = 1

#: wire bytes per record header in a batched diff frame (page id + length)
BATCH_ENTRY_BYTES = 8

#: per-diff byte ceiling for batching (``DsmConfig.batch_notices``): only
#: diffs at or below this size join the per-home batch frame.  Large diffs
#: keep their own frame so the home can overlap applying one diff with
#: receiving the next (coalescing them would serialise the whole frame's
#: transfer before any apply, lengthening the flush critical path for the
#: ~40 B of header it saves).
BATCH_MAX_BYTES = 512

#: adaptive migration: EWMA share of a page's write bytes a challenger
#: needs to take the home (the incumbent home's in-place writes are
#: credited one full page per epoch, a natural hysteresis against
#: ping-pong)
MIGRATION_SHARE = 0.5

#: update push (adaptive migration): a home keeps pushing a page's fresh
#: copy to a reader for this many barrier epochs after the reader's last
#: real fetch.  A stable consumer re-fetches once per window and is pushed
#: to in between (~1/(N+1) of its faults survive); a reader that stops
#: consuming wastes at most this many pushed frames per page.
PUSH_INTEREST_EPOCHS = 8

#: wire bytes of a push frame header (page id + epoch stamp)
PUSH_HEADER_BYTES = 12


_OS_PROFILES = {"linux-2.4": LINUX_24, "aix-4.3.3": AIX_433}


@dataclass
class DsmNodeStats:
    """Per-node DSM protocol counters.

    The sum over nodes (plus the system-wide ``home_migrations``) becomes
    ``RunResult.dsm_stats``.  Each counter has a per-event counterpart in
    :mod:`repro.trace` (category/name given below), so aggregates and
    traces speak one vocabulary.

    ====================  ======  =======================================  ==========================
    key                   unit    meaning (trace counterpart)              paper figure it feeds
    ====================  ======  =======================================  ==========================
    read_faults           count   read faults on INVALID pages             Figs 8-11 (SDSM overhead)
                                  (``dsm.page/fault`` kind=read)
    write_faults          count   write faults: INVALID fetch-for-write    Figs 8-11
                                  or READ_ONLY upgrade
                                  (``dsm.page/fault`` kind=write[-upgrade])
    pages_fetched         count   whole pages / homeless diffs pulled      Figs 8-11
                                  from remote (``dsm.page/fetch``,
                                  ``dsm.page/diff-pull``)
    fetch_bytes           bytes   payload bytes of those fetches           traffic ablations
    diffs_sent            count   diffs shipped to homes at releases       Fig 6 (critical), Figs 8-11
                                  (``dsm.page/flush`` args ``diffs``)
    diff_bytes            bytes   diff payload bytes                       traffic ablations
    twins_created         count   twin copies made before first write      Fig 6 (twin/diff cost)
                                  (``dsm.page/twin``)
    barriers              count   HLRC barriers entered by this node       Figs 8-11 (barrier cost)
                                  (``dsm.barrier/barrier`` spans)
    lock_acquires         count   distributed lock acquires                Fig 6 (KDSM lock path)
                                  (``dsm.lock/acquire`` spans)
    lock_remote_acquires  count   ... whose manager is on another node     Fig 6 (lock hops)
                                  (``dsm.lock/acquire`` remote=True)
    invalidations         count   pages invalidated by write notices       Figs 8-11
                                  (``dsm.page/page-state`` dst=INVALID)
    blocked_waits         count   threads parked on an in-flight page      §5.2.3 TRANSIENT/BLOCKED
                                  update (``dsm.page/page-wait`` spans)
    fetches_served        count   fetch/diff requests served as home       comm-thread contention,
                                  (``dsm.page/serve-fetch``)               §6.2 configurations
    dsm_reissues          count   fetch/dget requests idempotently         reliability ablations
                                  re-issued after a quiet RTO, chaos       (docs/RELIABILITY.md)
                                  runs only (``chaos/dsm-reissue``)
    stale_replies         count   duplicate/late replies discarded         reliability ablations
                                  after a re-issue already resolved
                                  the request (``chaos/stale-reply``)
    notices_batched       count   per-page diff records coalesced into     protocol-accelerator
                                  batched ``dbat`` frames — messages        ablations
                                  saved is this minus the frame count      (docs/PERFORMANCE.md)
                                  (``dsm.page/diff-batch`` args
                                  ``entries``)
    updates_pushed        count   fresh page copies pushed by this home    protocol-accelerator
                                  to predicted re-fetchers after a         ablations
                                  barrier departure (``dsm.page/push``)
    updates_installed     count   pushed copies this node installed —      protocol-accelerator
                                  faults it will never take; pushes        ablations
                                  minus installs were dropped as stale
                                  (``dsm.page/push-apply``)
    barrier_arrivals_rx   count   barrier arrival frames received from     scale-out ablations
                                  *other* nodes: n-1 per epoch at a flat   (docs/PERFORMANCE.md
                                  master, <= fan-in per epoch per tree     "Scaling")
                                  node with ``barrier_fanin`` on
                                  (``dsm.barrier`` arrive/relay receipt)
    barrier_relays        count   tree frames this node relayed as an      scale-out ablations
                                  interior node: subtree aggregates
                                  forwarded up + departure frames fanned
                                  out down (``dsm.barrier/relay``,
                                  ``dsm.barrier/fanout``)
    notices_merged        count   page records collapsed into an already   scale-out ablations
                                  aggregated page entry while climbing
                                  the barrier tree — notice records the
                                  in-tree merge kept off the wire
                                  (``dsm.barrier/relay`` args ``pages``)
    lock_grants           count   lock grants issued by this node as       scale-out ablations
                                  manager (``dsm.lock/grant``)             (shard balance)
    lock_remote_grants    count   ... granted to another node; the         scale-out ablations
                                  remote share shows whether
                                  ``lock_shard="locality"`` kept grants
                                  local (``dsm.lock/grant`` requester)
    ====================  ======  =======================================  ==========================

    ``RunResult.dsm_stats`` additionally carries the system-wide
    ``home_migrations`` counter (eager sole-writer or adaptive
    byte-weighted migrations, by :class:`~repro.dsm.config.DsmConfig`).
    """

    read_faults: int = 0
    write_faults: int = 0
    pages_fetched: int = 0
    fetch_bytes: int = 0
    diffs_sent: int = 0
    diff_bytes: int = 0
    twins_created: int = 0
    barriers: int = 0
    lock_acquires: int = 0
    lock_remote_acquires: int = 0
    invalidations: int = 0
    blocked_waits: int = 0
    fetches_served: int = 0
    dsm_reissues: int = 0
    stale_replies: int = 0
    notices_batched: int = 0
    updates_pushed: int = 0
    updates_installed: int = 0
    barrier_arrivals_rx: int = 0
    barrier_relays: int = 0
    notices_merged: int = 0
    lock_grants: int = 0
    lock_remote_grants: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class DsmNode:
    """DSM agent for one node; see module docstring."""

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
        n_nodes = system.cluster.n_nodes

        # Node-local copy of the shared pool, behind a protected app mapping.
        self.phys = PhysicalMemory(self.n_pages, self.page_size)
        self.space = AddressSpace(self.phys, name=f"app[{self.id}]")
        self.space.map_identity(self.n_pages, prot=PROT_NONE)

        profile = _OS_PROFILES[dsm_config.os_profile]
        self.strategy = strategy_by_name(dsm_config.update_strategy, profile=profile)

        # Page table: master starts READ_ONLY everywhere, others INVALID
        # (§5.2.3).  Homeless mode: every copy starts valid (all zeros are
        # trivially coherent) and writers retain diffs for pulling.
        all_valid = dsm_config.homeless
        initial = PageState.READ_ONLY if (self.id == 0 or all_valid) else PageState.INVALID
        self.state: List[PageState] = [initial] * self.n_pages
        #: pages per state, indexed by ``PageState.idx``.  Created with the
        #: table and moved only by ``_write_state``, the one function that
        #: stores into ``state`` — every census reader (the trace counter,
        #: the metrics source) trusts it instead of rescanning the table.
        self.census: List[int] = [0] * len(PageState)
        self.census[initial.idx] = self.n_pages
        self.home: List[int] = [0] * self.n_pages
        self.kind: List[int] = [KIND_HLRC] * self.n_pages
        if self.id == 0 or all_valid:
            for p in range(self.n_pages):
                self.space.protect(p, PROT_READ)
        #: homeless mode: (page, barrier epoch) -> retained diff
        self._diff_log: Dict[tuple, Diff] = {}
        #: homeless mode: page -> ordered [(epoch, [writers])] still unapplied
        self._missing: Dict[int, List[tuple]] = {}

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
        f = dsm_config.barrier_fanin
        self._fanin = f
        if f:
            self._bar_parent = (self.id - 1) // f if self.id else None
            self._bar_children = [
                c for c in range(f * self.id + 1, f * self.id + f + 1)
                if c < n_nodes
            ]
        else:
            self._bar_parent = None
            self._bar_children = []
        # epoch -> partially folded subtree aggregate:
        # {"n": contributions seen, "writers": {page: {writer}},
        #  "bytes": {page: {writer: diff bytes}} (adaptive only),
        #  "fetched": {node: (page, ...)} (adaptive push interest)}
        self._bar_agg: Dict[int, dict] = {}

        # lock manager state (for locks homed here)
        self._lock_holder: Dict[int, Optional[int]] = {}
        self._lock_queue: Dict[int, List] = {}
        self._lock_log: Dict[int, NoticeLog] = {}
        # lock sharding (DsmConfig.lock_shard="locality"): the static
        # directory's record of each lock's assigned (first-toucher)
        # manager, and the client-side manager cache learned from grants
        self._lock_assign: Dict[int, int] = {}
        self._lock_home: Dict[int, int] = {}
        self._interval = 0
        # notices this node created in lock intervals since the last barrier;
        # they must still propagate at the next barrier (HLRC would carry
        # them in vector timestamps — we piggyback them conservatively)
        self._notices_since_barrier: List[WriteNotice] = []
        # lock id -> how much of that list this node's releases of the
        # lock have already handed its manager
        self._lock_published: Dict[int, int] = {}
        # flushes between their first diff and their last ack, and the
        # event a finished one waits on for the others (made on demand)
        self._flushes_in_flight = 0
        self._flushes_done: Optional[Event] = None

        # pages whose invalidation arrived while a fetch was in flight
        # (TRANSIENT/BLOCKED); drained by the fetching thread, which
        # discards the stale update and retries.
        self._pending_inval: Set[int] = set()

        # protocol accelerator (docs/PERFORMANCE.md "Protocol optimizations")
        self._accel_adaptive = dsm_config.adaptive_migration  # never with homeless
        #: wire bytes per notice record: sized notices carry diff byte counts
        self._notice_nbytes = (
            WriteNotice.NBYTES_SIZED if self._accel_adaptive else WriteNotice.NBYTES
        )
        # adaptive migration, master only: page -> {writer: EWMA diff bytes}
        self._mig_hist: Dict[int, Dict[int, float]] = {}
        # adaptive migration, new-home side: page -> event local threads
        # wait on until the old home's copy arrives ...
        self._pending_handoff: Dict[int, Event] = {}
        # ... fetch requests parked meanwhile, page -> [(requester, req_id)]
        self._handoff_waiters: Dict[int, List[tuple]] = {}
        # ... and copies that arrived before this node processed the
        # departure that announces the migration (possible under chaos
        # delays), page -> raw page bytes
        self._handoff_data: Dict[int, bytes] = {}
        # update push, master side: page -> {reader: epoch of its last
        # reported fetch}; predicts which nodes will re-fetch a page after
        # a barrier invalidates it (fed by the arrival payloads)
        self._push_interest: Dict[int, Dict[int, int]] = {}
        # update push, reader side: pages this node remote-fetched since
        # its last barrier arrival — reported to the master as interest
        self._fetched_since_barrier: Set[int] = set()
        # receiver side: page -> event a faulting thread parks on when an
        # inbound one-way frame was promised for the page — a barrier
        # departure announced an update push.  Waiting for the frame in
        # flight beats issuing our own fetch round-trip; any install or
        # lock-grant invalidation of the page wakes (and removes) the event.
        self._expected_frames: Dict[int, Event] = {}
        # ... frames that arrived before this node processed the departure
        # that announced them, page -> (epoch, raw page bytes)
        self._push_stash: Dict[int, tuple] = {}
        # ... and the last barrier epoch whose departure this node has
        # processed (separates the stash window from the install window)
        self._departed_epoch = -1
        # update push, receiver side: pages invalidated by lock-grant
        # notices since the last barrier departure.  A push snapshotted at
        # that departure is stale with respect to the lock writer's data,
        # so it must not be installed (the lock's happens-before edge
        # promised the newer bytes); cleared at every departure.
        self._lock_invalidated: Set[int] = set()

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
            # stated before the legality check, so the live checkers see
            # (and name) the transition that is about to raise
            pb.instant(
                "dsm.page", "page-state", node=self.id,
                page=page, src=old.name, dst=new.name, reason=reason,
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

    # ------------------------------------------------------------------
    # application access API
    # ------------------------------------------------------------------
    def try_fast_access(self, addr: int, nbytes: int, write: bool) -> bool:
        """Non-generator fast path: True iff [addr, addr+nbytes) is already
        accessible for the requested mode, so the caller may skip the
        generator fault loop entirely.

        Equivalent to :meth:`acquire_read`/:meth:`acquire_write` returning
        without a fault: in that case those generators consume no virtual
        time and take no protocol action, so skipping them is invisible to
        the simulation.  Positive answers are cached per
        ``(addr, nbytes, write)`` and stamped with
        :attr:`AddressSpace.version`; any mapping or protection change
        (every page-state transition performs an mprotect) invalidates the
        whole cache.
        """
        v = self.space.version
        if v != self._fast_version:
            self._fast_version = v
            self._fast_valid.clear()
        key = (addr, nbytes, write)
        if key in self._fast_valid:
            return True
        if self.space.can_access(addr, nbytes, write):
            self._fast_valid.add(key)
            return True
        return False

    def acquire_read(self, addr: int, size: int):
        """Ensure every page in [addr, addr+size) is locally readable."""
        return self._acquire(addr, size, False)

    def acquire_write(self, addr: int, size: int):
        """Ensure pages are writable; creates twins and marks them dirty."""
        return self._acquire(addr, size, True)

    def _acquire(self, addr: int, size: int, is_write: bool):
        """The access check and fault loop, a range at a time: one scan
        plans the pages lacking the right, they are serviced lowest first.

        That is the order of faulting, servicing and re-running the access
        after every page, because a listed page can only *gain* the right
        behind our back (a sibling thread serviced it: skipped below) —
        unless some page lost one, which :attr:`AddressSpace.downgrades`
        reports (a sibling's flush or lock-grant invalidation); then an
        earlier page may lack it again and the plan is rebuilt."""
        space = self.space
        need = PROT_WRITE if is_write else PROT_READ
        while True:
            pages = space.lacking(addr, size, is_write)
            stamp = space.downgrades
            i, n = 0, len(pages)
            while i < n:
                if space.protection(pages[i]) & need:
                    i += 1
                    continue
                space.n_faults += 1
                i = yield from self._service_fault(pages, i, is_write)
                if space.downgrades != stamp:
                    break
            else:
                return

    def read(self, addr: int, size: int):
        """Protection-checked read returning bytes (faults as needed)."""
        if not self.try_fast_access(addr, size, write=False):
            yield from self.acquire_read(addr, size)
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "access", node=self.id, addr=addr, nbytes=size,
                       write=False, what=f"[{addr:#x}+{size}]")
        return self.space.read(addr, size)

    def write(self, addr: int, data: bytes):
        """Protection-checked write (faults as needed)."""
        data = bytes(data)
        if not self.try_fast_access(addr, len(data), write=True):
            yield from self.acquire_write(addr, len(data))
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "access", node=self.id, addr=addr, nbytes=len(data),
                       write=True, what=f"[{addr:#x}+{len(data)}]")
        self.space.write(addr, data)

    # ------------------------------------------------------------------
    # fault service (the SIGSEGV handler, §5.2.3)
    # ------------------------------------------------------------------
    def _service_fault(self, pages, i: int, is_write: bool):
        """Service the fault on ``pages[i]`` until the page grants the
        access; returns the index of the next page of the plan to look at
        (a write-upgrade run consumes several)."""
        sim = self.sim
        while True:
            page = pages[i]
            st = self.state[page]
            if st == PageState.READ_ONLY:
                if not is_write:
                    return i + 1  # raced with another thread's completed fetch
                # write fault on a valid clean page — local service only,
                # carried on through the following such pages of the plan;
                # re-examine the one the run ended on
                i = yield from self._upgrade_run(pages, i)
            elif st == PageState.DIRTY:
                return i + 1  # already writable
            elif st == PageState.INVALID and page in self._expected_frames:
                yield from self._await_promised_frame(page, is_write)
            elif st == PageState.INVALID:
                # fetch round-trips re-phase themselves as fault-fetch;
                # the rest (fault/mprotect/update CPU) is fault-work
                t0 = self._count_fault(page, is_write)
                if (yield from bracket(
                        sim, PH_FAULT_WORK, self._fetch_fault(page, is_write, t0))):
                    return i + 1
            else:
                # TRANSIENT or BLOCKED: some other thread is updating; wait.
                self.stats.blocked_waits += 1
                if st == PageState.TRANSIENT:
                    self._set_state(page, PageState.BLOCKED, "concurrent-fault")
                waiter = self._page_waiters.get(page)
                if waiter is None:
                    waiter = Event(sim, name=f"pagewait[{self.id}:{page}]")
                    self._page_waiters[page] = waiter
                t0 = sim.now
                yield from bracket(sim, PH_PAGE_WAIT, waiting(waiter))
                pb = sim.probe
                if pb is not None and "dsm.page" in pb.heard:
                    pb.span("dsm.page", "page-wait", t0, node=self.id, page=page)
            # loop: re-examine the state (may need to upgrade to write)

    def _count_fault(self, page: int, is_write: bool) -> float:
        """Book one fault (a retry counts again); returns its start time."""
        if is_write:
            self.stats.write_faults += 1
        else:
            self.stats.read_faults += 1
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "fault", page=page, write=is_write)
        return self.sim.now

    def _upgrade_run(self, pages, i: int):
        """Write faults on valid clean pages, from ``pages[i]`` on through
        the plan: READ_ONLY -> DIRTY is purely local — per page a SIGSEGV
        burst, the twin, an mprotect burst — so the whole run is ONE chain
        of CPU bursts (``busy_cpu(again=)``) that resumes this thread at
        its end instead of twice a page, with the same bursts requested
        in the same order at the same instants as a loop over the pages.

        Every burst boundary re-checks what a resumed thread would: the
        chain stops when the page changed state under us (a sibling
        applied a lock-grant notice to it or upgraded it first), when some
        page lost a right (the plan is stale), or before a page that is
        not valid and clean.  Returns the index of the last page begun,
        DIRTY unless cut short; the caller re-examines it."""
        cc = self.cluster_config
        space = self.space
        state = self.state
        stamp = space.downgrades
        page = pages[i]
        t0 = self._count_fault(page, True)
        trapped = False  # this page's SIGSEGV burst is done, mprotect is next

        def step():
            nonlocal i, page, t0, trapped
            if state[page] is not PageState.READ_ONLY:
                return None  # (_invalidate dropped any twin)
            if not trapped:
                if self.config.homeless or self.home[page] != self.id:
                    self._make_twin(page)
                trapped = True
                return cc.mprotect_overhead
            self._set_state(page, PageState.DIRTY, "write-fault")
            space.protect(page, PROT_RW)
            self.dirty.add(page)
            pb = self.sim.probe
            if pb is not None and "dsm.page" in pb.heard:
                pb.span("dsm.page", "fault", t0, node=self.id,
                        page=page, kind="write-upgrade")
            # on to the next page of the plan, if it is another of this
            # kind (a listed page found READ_ONLY still lacks the write
            # right: only object pages are clean and writable)
            if (space.downgrades != stamp or i + 1 == len(pages)
                    or state[pages[i + 1]] is not PageState.READ_ONLY):
                return None
            i += 1
            page, trapped = pages[i], False
            space.n_faults += 1
            t0 = self._count_fault(page, True)
            return cc.fault_overhead

        yield from bracket(self.sim, PH_FAULT_WORK,
                           self.node.busy_cpu(cc.fault_overhead, again=step))
        return i

    def _await_promised_frame(self, page: int, is_write: bool):
        """Fault on an INVALID page with a one-way frame promised.

        The barrier departure announced an update push for this page: the
        home's frame is already in flight, so waiting for it strictly
        beats issuing our own fetch round-trip.  If a lock-grant notice
        voids the promise, the wake-up re-examines the page and falls
        through to a fetch."""
        t0 = self._count_fault(page, is_write)
        yield from bracket(
            self.sim, PH_FAULT_WORK,
            self.node.busy_cpu(self.cluster_config.fault_overhead),
        )
        ev = self._expected_frames.get(page)
        if ev is not None and not ev.triggered:
            yield from bracket(self.sim, PH_PAGE_WAIT, waiting(ev))
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.span("dsm.page", "fault", t0, node=self.id,
                    page=page, kind="push-wait")

    def _fetch_fault(self, page: int, is_write: bool, t0: float):
        """INVALID -> fetched and installed; False when an invalidation
        raced with the fetch (the caller re-examines the page)."""
        self._set_state(page, PageState.TRANSIENT, "fault")
        yield from self.node.busy_cpu(self.cluster_config.fault_overhead)
        final_prot = PROT_RW if is_write else PROT_READ
        if self.config.homeless:
            yield from self._pull_missing_diffs(page)
            yield from self.node.busy_cpu(self.cluster_config.mprotect_overhead)
            self.space.protect(page, final_prot)
        else:
            data = yield from self._fetch_page(page)
            yield from self.strategy.update_page(self, self.space, page, data, final_prot)
        stale = page in self._pending_inval
        if stale:
            # An invalidation raced with this fetch (a sibling thread
            # applied a write notice for the page while the fetch was in
            # flight): the copy just installed may be stale.  Close the
            # update through the legal Figure-5 chain, drop it, wake
            # waiters, and retry.
            self._pending_inval.discard(page)
            self._set_state(page, PageState.READ_ONLY, "update-done")
            self._invalidate(page)
        elif is_write:
            if self.config.homeless or self.home[page] != self.id:
                self._make_twin(page)
            self.dirty.add(page)
            self._set_state(page, PageState.DIRTY, "update-done-write")
        else:
            self._set_state(page, PageState.READ_ONLY, "update-done")
        waiter = self._page_waiters.pop(page, None)
        if waiter is not None:
            waiter.succeed()
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.span(
                "dsm.page", "fault", t0, node=self.id, page=page,
                kind="retry-invalidated" if stale
                else "write" if is_write else "read",
            )
        return not stale

    def _make_twin(self, page: int) -> None:
        self.twins[page] = make_twin(self._page_view(page))
        self.stats.twins_created += 1
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.instant("dsm.page", "twin", node=self.id, page=page)

    def _page_view(self, page: int) -> np.ndarray:
        return self.phys.frame_view(page)

    # ------------------------------------------------------------------
    # fetch protocol
    # ------------------------------------------------------------------
    def _next_req(self) -> int:
        return next(self._req_seq)

    def _pending_event(self, req_id: int) -> Event:
        ev = Event(self.sim, name=f"pending[{self.id}:{req_id}]")
        self._pending[req_id] = ev
        return ev

    def _resolve(self, req_id: int, value) -> None:
        ev = self._pending.pop(req_id, None)
        if ev is None:
            # On a perfect link every request gets exactly one reply, so
            # an unmatched req_id is protocol corruption — keep the strict
            # failure.  On a lossy one an idempotent re-issue
            # (_request) can legitimately draw a second reply: count
            # and drop it.
            if self.net.link is None:
                raise KeyError(req_id)
            self.stats.stale_replies += 1
            pb = self.sim.probe
            if pb is not None and "chaos" in pb.heard:
                pb.instant("chaos", "stale-reply", node=self.id,
                           tid="chaos", req=req_id)
            return
        ev.succeed(value)

    def _request(self, dst: int, kind: str, nbytes: int, payload):
        """One idempotent read request (``fetch`` / ``dget``) to *dst*;
        returns the reply.  On a lossy link the request is re-issued after
        quiet RTOs.

        Re-issues replay the send with the **same** req_id — sound only
        because these are pure reads: a duplicate reply is discarded by
        :meth:`_resolve` as stale.  Non-idempotent requests (lock acquire,
        barrier arrival, diff application) rely solely on the chaos
        engine's ack/retransmit layer, which already guarantees
        exactly-once delivery.  Re-issues are bounded by
        ``dsm_max_reissues``; past that we trust the link layer (which
        raises :class:`~repro.chaos.ChaosDeliveryError` if truly dead).
        """
        req_id = self._next_req()
        ev = self._pending_event(req_id)
        tag = ("dsm", kind, req_id)
        yield from self.net.send(self.id, dst, nbytes, payload, tag=tag)
        link = self.net.link
        if link is None:
            value = yield ev
            return value
        rel = link.reliability
        rto = link.dsm_rto()
        pb = self.sim.probe
        for attempt in range(rel.dsm_max_reissues):
            timer = self.sim.timeout(rto * (rel.backoff ** attempt))
            yield AnyOf(self.sim, [ev, timer])
            if ev.processed:
                return ev.value
            self.stats.dsm_reissues += 1
            link.stats.dsm_reissues += 1
            if pb is not None and "chaos" in pb.heard:
                pb.instant("chaos", "dsm-reissue", node=self.id,
                           tid="chaos", attempt=attempt + 1)
            yield from self.net.send(self.id, dst, nbytes, payload, tag=tag)
        value = yield ev
        return value

    def _fetch_page(self, page: int):
        """Request the up-to-date page from its home; returns page bytes."""
        home = self.home[page]
        assert home != self.id, f"node {self.id} faulted on page {page} it homes"
        t0 = self.sim.now
        # request round-trip: send + wait for the home's reply
        data = yield from bracket(
            self.sim, PH_FAULT_FETCH, self._request(home, "fetch", 8, (page, self.id))
        )
        self.stats.pages_fetched += 1
        self.stats.fetch_bytes += len(data)
        if self._accel_adaptive:
            # reported to the master at the next barrier arrival as
            # update-push interest
            self._fetched_since_barrier.add(page)
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.span("dsm.page", "fetch", t0, node=self.id,
                    page=page, home=home, nbytes=len(data))
        return data

    def _pull_missing_diffs(self, page: int):
        """Homeless fault service: pull and apply every missing diff, in
        barrier-epoch order (within an epoch, writers touch disjoint bytes
        for data-race-free programs, so cross-writer order is free)."""
        records = self._missing.pop(page, [])
        view = self._page_view(page)
        pb = self.sim.probe
        t0 = self.sim.now
        n_pulled = 0
        for epoch, writers in sorted(records):
            for w in writers:
                diff = yield from bracket(
                    self.sim, PH_FAULT_FETCH,
                    self._request(w, "dget", 12, (page, epoch, self.id)),
                )
                self.stats.pages_fetched += 1
                nb = diff_nbytes(diff)
                self.stats.fetch_bytes += nb
                if pb is not None and CAT_AUDIT in pb.heard:
                    pb.instant(CAT_AUDIT, "pull", page=page, nbytes=nb)
                yield from self.node.busy_cpu(self.cluster_config.diff_apply_overhead)
                apply_diff(view, diff)
                n_pulled += 1
        if pb is not None and "dsm.page" in pb.heard and records:
            pb.span("dsm.page", "diff-pull", t0, node=self.id, page=page, diffs=n_pulled)

    # -- handlers run on the communication thread ------------------------
    def handle_dsm(self, msg):
        """Comm-thread handler for the 'dsm' channel."""
        _chan, kind, req_id = msg.tag
        if kind == "dget":
            page, epoch, requester = msg.payload
            diff = self._diff_log.get((page, epoch), EMPTY_DIFF)
            self.stats.fetches_served += 1
            yield from self.net.send(
                self.id, requester, diff_nbytes(diff), diff, tag=("dsm", "dgetR", req_id)
            )
            return
        if kind == "dgetR":
            self._resolve(req_id, msg.payload)
            return
        if kind == "fetch":
            page, requester = msg.payload
            yield from self._serve_fetch(page, requester, req_id)
        elif kind == "fetchR":
            self._resolve(req_id, msg.payload)
        elif kind == "diff":
            page, diff = msg.payload
            yield from self._apply_incoming_diff(page, diff)
            yield from self.net.send(self.id, msg.src, 4, None, tag=("dsm", "diffR", req_id))
        elif kind == "diffR":
            self._resolve(req_id, None)
        elif kind == "dbat":
            # batched release: apply every (page, diff) record, ack once.
            # Rides the chaos ack/retransmit layer like "diff" — the frame
            # is exactly-once at the link layer, so per-page application
            # stays non-idempotent-safe.
            for page, diff in msg.payload:
                yield from self._apply_incoming_diff(page, diff)
            yield from self.net.send(self.id, msg.src, 4, None, tag=("dsm", "dbatR", req_id))
        elif kind == "dbatR":
            self._resolve(req_id, None)
        elif kind == "hand":
            # adaptive migration: the old home ships its current copy to
            # the new home chosen at the barrier (fire-and-forget;
            # exactly-once at the link layer)
            yield from self._receive_handoff(msg.payload, msg.src)
        elif kind == "push":
            # update push: a home forwards the fresh copy of a page this
            # node is predicted to re-fetch (fire-and-forget; dropped
            # whenever installing would not be sound)
            yield from self._receive_push(msg.payload, msg.src)
        else:  # pragma: no cover - protocol corruption guard
            raise RuntimeError(f"unknown dsm message kind {kind!r}")

    def _serve_fetch(self, page: int, requester: int, req_id: int):
        if self.home[page] != self.id:
            # Stale home pointer (should not happen barrier-to-barrier, but
            # forward for robustness; one extra hop).
            yield from self.net.send(
                self.id, self.home[page], 8, (page, requester), tag=("dsm", "fetch", req_id)
            )
            return
        if page in self._pending_handoff:
            # This page just migrated to us and the old home's copy is
            # still in flight: park the request (the comm thread must not
            # block), served in arrival order when the handoff lands.
            waiters = self._handoff_waiters.setdefault(page, [])
            if (requester, req_id) not in waiters:
                waiters.append((requester, req_id))
            return
        st = self.state[page]
        assert st in (PageState.READ_ONLY, PageState.DIRTY), (
            f"home {self.id} of page {page} holds it {st.name}"
        )
        self.stats.fetches_served += 1
        data = self._page_view(page).tobytes()
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.instant("dsm.page", "serve-fetch", node=self.id,
                       page=page, requester=requester)
        yield from self.net.send(
            self.id, requester, len(data), data, tag=("dsm", "fetchR", req_id)
        )

    def _apply_incoming_diff(self, page: int, diff):
        assert self.home[page] == self.id, (
            f"diff for page {page} arrived at non-home {self.id}"
        )
        yield from self.node.busy_cpu(self.cluster_config.diff_apply_overhead)
        apply_diff(self._page_view(page), diff)
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.instant("dsm.page", "diff-apply", node=self.id, page=page)

    # ------------------------------------------------------------------
    # adaptive home migration: page handoff (new-home side)
    # ------------------------------------------------------------------
    def _receive_handoff(self, payload, src: int):
        """Comm-thread handler for an incoming ``hand`` frame.

        Normally this node already processed the barrier departure that
        announced the migration (it registered ``_pending_handoff``):
        install the copy, wake local waiters, serve parked fetches.  Under
        chaos delays the frame can overtake this node's departure — stash
        the bytes; the departure path installs them inline.
        """
        page, data = payload
        if page not in self._pending_handoff:
            self._handoff_data[page] = data
            return
        yield from self._install_handoff(page, data)
        self._pending_handoff.pop(page).succeed()
        for requester, rid in self._handoff_waiters.pop(page, []):
            yield from self._serve_fetch(page, requester, rid)

    def _install_handoff(self, page: int, data):
        """Install the old home's page copy on the new home, through the
        legal Figure-5 chain (the page was invalidated at the departure)."""
        yield from self._install_copy(page, data, "handoff-apply")

    def _install_copy(self, page: int, data, label: str):
        """Install a whole-page copy (migration handoff or update push)
        on an INVALID page through the legal Figure-5 chain.

        TRANSIENT is entered before the first yield so application
        threads faulting concurrently (push installs run mid-window) see
        the update in progress and park in BLOCKED instead of starting a
        competing fetch; they are woken when the install completes, same
        as the fetch path.
        """
        assert self.state[page] is PageState.INVALID, (
            f"{label} for page {page} found state {self.state[page].name} on {self.id}"
        )
        self._set_state(page, PageState.TRANSIENT, "fault")
        yield from self.node.busy_cpu(self.cluster_config.diff_apply_overhead)
        yield from self.node.busy_cpu(self.cluster_config.mprotect_overhead)
        self._page_view(page)[:] = np.frombuffer(data, dtype=np.uint8)
        self._set_state(page, PageState.READ_ONLY, "update-done")
        self.space.protect(page, PROT_READ)
        if page in self._pending_inval:
            # a write notice invalidated the page while the install was in
            # its busy windows (lock-grant processing on a sibling thread):
            # the copy is stale — drop it, woken waiters re-fault
            self._pending_inval.discard(page)
            self._invalidate(page)
        waiter = self._page_waiters.pop(page, None)
        if waiter is not None:
            waiter.succeed()
        # any install resolves an expected-frame promise for the page:
        # parked threads wake and re-examine the (now usually READ_ONLY)
        # state; on the stale-install path above they re-fault and fetch
        ev = self._expected_frames.pop(page, None)
        if ev is not None and not ev.triggered:
            ev.succeed()
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.instant("dsm.page", label, node=self.id, page=page)

    # ------------------------------------------------------------------
    # update push (adaptive migration): home -> predicted re-fetchers
    #
    # The master turns reader interest (pages each node reported fetching
    # in its arrival) into a push plan announced in every departure.
    # Homes snapshot the announced pages and push one-way copies; a
    # reader faulting on an announced page parks for the frame instead of
    # issuing its own fetch — the steady-state invalidate/fault/fetch
    # round-trip of producer-consumer pages becomes half a round-trip.
    # ------------------------------------------------------------------
    def _process_push_plan(self, push_plan, epoch: int):
        """Receiver side, inside barrier processing after invalidations:
        install frames that overtook our departure (stash) and register a
        park event for every still-missing announced page, so faults wait
        for the one-way push instead of fetching."""
        for page in sorted(push_plan):
            if self.id not in push_plan[page]:
                continue
            stash = self._push_stash.pop(page, None)
            if self.state[page] is not PageState.INVALID:
                continue
            if stash is not None:
                self.stats.updates_installed += 1
                # consuming a push renews interest: without this, a page
                # served by pushes alone would fall out of the master's
                # interest window and cost one fetch every window
                self._fetched_since_barrier.add(page)
                yield from self._install_copy(page, stash[1], "push-apply")
                continue
            self._expected_frames[page] = Event(
                self.sim, name=f"pushwait[{self.id}:{page}]"
            )

    def _push_updates(self, push_plan, epoch: int, *,
                      awaiting_handoff: bool, new_homes) -> None:
        """Home side, during barrier processing: snapshot every announced
        page homed here and hand the copies to a detached sender process.

        Called twice per departure: first (``awaiting_handoff=False``)
        for pages whose home did not change — frames go on the wire
        before the handoff wait, minimising parked readers' stall — then
        (``awaiting_handoff=True``) for pages just migrated here, whose
        copy only exists once the old home's handoff installed.

        The snapshot is taken synchronously (no virtual time passes), so
        the pushed bytes are exactly what a fetch at departure time would
        return — application writes of the next interval can never leak
        into the frame.  Transmission happens off the barrier critical
        path.  Every announced (page, reader) pair IS pushed — readers
        may be parked on the frame — and the chaos link layer delivers
        exactly-once, so parked faults never strand.
        """
        pushes = []
        for page in sorted(push_plan):
            if self.home[page] != self.id:
                continue
            if (new_homes.get(page) == self.id) != awaiting_handoff:
                continue
            assert self.state[page] in (PageState.READ_ONLY, PageState.DIRTY), (
                f"push of page {page} from home {self.id} in state "
                f"{self.state[page].name}"
            )
            data = self._page_view(page).tobytes()
            for r in push_plan[page]:
                if r != self.id:
                    pushes.append((page, r, data))
        if pushes:
            self.sim.process(
                self._push_sender(pushes, epoch),
                label=f"push[{self.id}:{epoch}]",
            )

    def _push_sender(self, pushes, epoch: int):
        """Detached sender: one ``push`` frame per (page, reader) —
        exactly-once at the link layer, dropped by the receiver whenever
        installing it would not be sound."""
        pb = self.sim.probe
        for page, dst, data in pushes:
            self.stats.updates_pushed += 1
            if pb is not None and "dsm.page" in pb.heard:
                pb.instant("dsm.page", "push", node=self.id,
                           page=page, dst=dst, epoch=epoch)
            yield from self.net.send(
                self.id, dst, self.page_size + PUSH_HEADER_BYTES,
                (page, epoch, data), tag=("dsm", "push", self._next_req()),
            )

    def _receive_push(self, payload, src: int):
        """Comm-thread handler for an incoming ``push`` frame.

        Installs the copy only when doing so is indistinguishable from a
        completed fetch issued right now: the receiver is in the
        inter-barrier window the frame was produced for (epoch check —
        both sides completed barrier *epoch*, next one not yet entered),
        its departure already ran (else the frame overtook it: stash, the
        departure path installs it), the page is INVALID, and no
        lock-grant notice invalidated the page this window (the lock's
        happens-before edge promised bytes newer than the departure-time
        snapshot).  Anything else: drop — the frame is an optimisation, a
        fault + fetch always remains correct.  Threads parked on the
        announced frame are woken after the install.
        """
        page, epoch, data = payload
        if self.kind[page] == KIND_OBJECT or self._barrier_epoch != epoch + 1:
            return
        if self._departed_epoch < epoch:
            self._push_stash[page] = (epoch, data)
            return
        if (
            self.home[page] != src
            or page in self._lock_invalidated
            or self.state[page] is not PageState.INVALID
        ):
            return
        self.stats.updates_installed += 1
        self._fetched_since_barrier.add(page)  # consuming renews interest
        yield from self._install_copy(page, data, "push-apply")

    # ------------------------------------------------------------------
    # flush: ship diffs of dirty pages to their homes (release operation)
    # ------------------------------------------------------------------
    def _flush_dirty(self, epoch: Optional[int] = None):
        """Send diffs for all dirty non-home pages; returns write notices
        for every dirty page.  Diff sends are pipelined, then acks awaited.

        Homeless mode (*epoch* given): diffs are retained locally, keyed by
        the barrier epoch, for later pulling by faulting nodes.

        With ``batch_notices`` every diff within :data:`BATCH_MAX_BYTES`
        bound for the same home travels in one ``("dsm", "dbat")`` frame
        per peer with a single ack (larger diffs keep their own pipelined
        ``diff`` frame — see the constant's rationale); the per-page
        ``diffs_sent``/``diff_bytes`` accounting is unchanged so runs stay
        comparable across the flag.  With ``adaptive_migration`` the
        returned notices are sized: they carry the diff byte count, the
        home writer credited one full page."""
        # release-time twin/diff work: diff CPU bursts inherit the flush
        # label; the trailing ack waits count as flush too
        return bracket(self.sim, PH_FLUSH, self._flush(epoch))

    def _flush(self, epoch: Optional[int]):
        self._interval += 1
        pb = self.sim.probe
        t0 = self.sim.now
        n_dirty = len(self.dirty)
        diffs_before = self.stats.diffs_sent
        bytes_before = self.stats.diff_bytes
        pages = sorted(self.dirty)
        if self.config.homeless:
            assert epoch is not None, "homeless flush requires a barrier epoch"
            for p in pages:
                twin = self.twins.get(p)
                assert twin is not None, f"dirty page {p} has no twin on {self.id}"
                yield from self.node.busy_cpu(self.cluster_config.diff_overhead)
                cur = self._page_view(p)
                diff = compute_diff(twin, cur)
                twin[:] = cur
                self._diff_log[(p, epoch)] = diff
                if pb is not None and CAT_AUDIT in pb.heard:
                    pb.instant(CAT_AUDIT, "diff", page=p, nbytes=diff_nbytes(diff))
            if pb is not None and "dsm.page" in pb.heard and n_dirty:
                pb.span("dsm.page", "flush", t0, node=self.id, dirty=n_dirty, retained=True)
            return [WriteNotice(p, self.id, self._interval) for p in pages]
        acks = []
        self._flushes_in_flight += 1
        batch = self.config.batch_notices
        by_home: Dict[int, List[tuple]] = {}
        sizes: Dict[int, int] = {}
        for p in pages:
            if self.home[p] == self.id:
                continue
            twin = self.twins.get(p)
            assert twin is not None, f"dirty non-home page {p} has no twin on {self.id}"
            yield from self.node.busy_cpu(self.cluster_config.diff_overhead)
            cur = self._page_view(p)
            diff = compute_diff(twin, cur)
            # the twin now stands for what is on its way home: a sibling
            # thread's write while the acks are out shows against it
            twin[:] = cur
            nb = diff_nbytes(diff)
            sizes[p] = nb
            if not diff:
                continue
            self.stats.diffs_sent += 1
            self.stats.diff_bytes += nb
            if pb is not None and CAT_AUDIT in pb.heard:
                pb.instant(CAT_AUDIT, "diff", page=p, nbytes=nb)
            if batch and nb <= BATCH_MAX_BYTES:
                by_home.setdefault(self.home[p], []).append((p, diff))
            else:
                req_id = self._next_req()
                acks.append(self._pending_event(req_id))
                yield from self.net.send(self.id, self.home[p], nb, (p, diff), tag=("dsm", "diff", req_id))
        for dst in sorted(by_home):
            entries = by_home[dst]
            req_id = self._next_req()
            acks.append(self._pending_event(req_id))
            nb = sum(diff_nbytes(d) for _, d in entries) + BATCH_ENTRY_BYTES * len(entries)
            self.stats.notices_batched += len(entries)
            if pb is not None and "dsm.page" in pb.heard:
                pb.instant("dsm.page", "diff-batch", node=self.id,
                           dst=dst, entries=len(entries), nbytes=nb)
            yield from self.net.send(self.id, dst, nb, entries, tag=("dsm", "dbat", req_id))
        for ev in acks:
            yield ev
        # a page this flush found equal to its twin may be one a sibling
        # thread's flush diffed a moment ago: those bytes are still in
        # flight, and the notices returned here must not overtake them —
        # so no flush of this node returns while another has acks out
        self._flushes_in_flight -= 1
        if self._flushes_in_flight:
            if self._flushes_done is None:
                self._flushes_done = Event(self.sim, name=f"flushes-done[{self.id}]")
            yield self._flushes_done
        elif self._flushes_done is not None:
            done, self._flushes_done = self._flushes_done, None
            done.succeed()
        if pb is not None and "dsm.page" in pb.heard and n_dirty:
            pb.span(
                "dsm.page", "flush", t0, node=self.id, dirty=n_dirty,
                diffs=self.stats.diffs_sent - diffs_before,
                nbytes=self.stats.diff_bytes - bytes_before,
            )
        if self._accel_adaptive:
            # sized notices; the home writer never diffs — credit a
            # full page as the documented incumbent proxy
            return [
                WriteNotice(p, self.id, self._interval, sizes.get(p, self.page_size))
                for p in pages
            ]
        return [WriteNotice(p, self.id, self._interval) for p in pages]

    def _close_interval(self, pages) -> None:
        """After a flush: the *pages* it covered (those of its notices)
        become clean, twins dropped — those that still equal their twin,
        which the flush left equal to what it shipped.  A page a sibling
        thread wrote while the flush waited for its acks (one it covered,
        or one it did not: no diff of that was taken at all) stays DIRTY,
        twin and all, for the next flush.  This is the only place a DIRTY
        page loses its twin, so a twin that differs from its page never
        is dropped."""
        flushed = set(pages)
        late = []
        for p in self.dirty:
            twin = self.twins.get(p)  # none on the page's home
            if p in flushed and (
                twin is None or np.array_equal(twin, self._page_view(p))
            ):
                self._set_state(p, PageState.READ_ONLY, "flush")
                self.space.protect(p, PROT_READ)
                self.twins.pop(p, None)
            else:
                late.append(p)
        self.dirty.clear()
        self.dirty.update(late)

    def _invalidate(self, page: int) -> None:
        if self.kind[page] == KIND_OBJECT:
            return
        st = self.state[page]
        if st == PageState.INVALID:
            return
        if st in (PageState.TRANSIENT, PageState.BLOCKED):
            # A write notice arrived while another thread's fetch of this
            # page is still in flight (possible only with >1 app thread
            # per node: this thread is applying lock-grant notices while
            # a sibling faults).  The copy being installed may already be
            # stale, but the frame cannot be yanked mid-update — defer:
            # the fetching thread invalidates and retries on completion.
            self._pending_inval.add(page)
            return
        # never DIRTY: its twin would be dropped un-sent.  Every caller
        # flushes first, and the transition table rejects the edge
        self._set_state(page, PageState.INVALID, "invalidate")
        self.space.protect(page, PROT_NONE)
        self.stats.invalidations += 1

    # ------------------------------------------------------------------
    # barrier (one caller per node per epoch; ParADE §5.2.2)
    # ------------------------------------------------------------------
    @property
    def master_id(self) -> int:
        return 0

    def barrier(self):
        """HLRC barrier: flush, send arrival+notices to master, wait for
        departure carrying invalidations and new homes."""
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        self.stats.barriers += 1
        bar_t0 = self.sim.now
        # arrival-to-departure; the nested flush re-phases its own span
        yield from bracket(self.sim, PH_BARRIER, self._barrier_body(epoch, bar_t0))
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            # the whole call, post-departure migration/push work included
            pb.span(CAT_AUDIT, "barrier-epoch", bar_t0, node=self.id)

    def _barrier_body(self, epoch: int, bar_t0: float):
        pb = self.sim.probe
        flushed = yield from self._flush_dirty(epoch=epoch)
        self._close_interval(wn.page for wn in flushed)
        # include notices from lock intervals since the last barrier
        notices = dedupe_notices(self._notices_since_barrier + flushed)
        self._notices_since_barrier = []
        self._lock_published.clear()

        wait = Event(self.sim, name=f"bardep[{self.id}:{epoch}]")
        self._bar_wait[epoch] = wait
        nb = 16 + self._notice_nbytes * len(notices)
        fetched: List[int] = []
        if self._accel_adaptive:
            # report update-push interest: pages we remote-fetched this
            # window (4 B per page id on the wire)
            fetched = sorted(self._fetched_since_barrier)
            self._fetched_since_barrier.clear()
            payload = (self.id, notices, fetched)
            nb += 4 * len(fetched)
        else:
            payload = (self.id, notices)
        if pb is not None and "dsm.barrier" in pb.heard:
            pb.instant("dsm.barrier", "arrive", node=self.id,
                       epoch=epoch, notices=len(notices))
        if self._fanin:
            # hierarchical barrier: contribute the page-level aggregate of
            # our own notices to this node's subtree fold — no frame until
            # the whole subtree has arrived (leaves forward immediately)
            own = {self.id: notices}
            yield from self._tree_contribute(
                epoch,
                merge_notices(own),
                merge_notice_bytes(own) if self._accel_adaptive else None,
                {self.id: tuple(fetched)} if fetched else {},
            )
        else:
            yield from self.net.send(self.id, self.master_id, nb, payload,
                                     tag=("bar", "arr", epoch))
        departure = yield wait
        if len(departure) == 3:
            inval_writers, new_homes, push_plan = departure
        else:
            (inval_writers, new_homes), push_plan = departure, {}
        if pb is not None and "dsm.barrier" in pb.heard:
            pb.span("dsm.barrier", "barrier", bar_t0, node=self.id,
                    epoch=epoch, notices=len(notices))
        # push staleness guard: lock invalidations of the closed window
        # no longer block installs (stale pushes now fail the epoch check)
        self._lock_invalidated.clear()

        if self.config.homeless:
            # record which writers' diffs this copy is missing, oldest first
            for page, writers in sorted(inval_writers.items()):
                others = writers - {self.id}
                if others:
                    self._missing.setdefault(page, []).append((epoch, sorted(others)))
                    self._invalidate(page)
            self._emit_census(pb)
            return

        # adaptive migration: before invalidating, an old home whose page
        # migrates to a non-sole writer must ship its (current) copy —
        # the new home's own copy lacks the other writers' diffs
        if self._accel_adaptive:
            for page, new_home in new_homes.items():
                if self.home[page] != self.id or new_home == self.id:
                    continue
                if inval_writers.get(page, set()) - {new_home}:
                    data = self._page_view(page).tobytes()
                    if pb is not None and "dsm.page" in pb.heard:
                        pb.instant("dsm.page", "handoff", node=self.id,
                                   page=page, dst=new_home, epoch=epoch)
                    yield from self.net.send(
                        self.id, new_home, self.page_size + 8, (page, data),
                        tag=("dsm", "hand", self._next_req()),
                    )
        # apply invalidations and the new home directory: every page with
        # a writer other than us, unless it is (now) homed here.  Most are
        # INVALID already, which _invalidate would find out a call later.
        me, state, home = self.id, self.state, self.home
        for page, writers in inval_writers.items():
            if (state[page] is not PageState.INVALID
                    and len(writers) > (me in writers)
                    and new_homes.get(page, home[page]) != me):
                self._invalidate(page)
        for page, new_home in new_homes.items():
            self.home[page] = new_home
        if self._accel_adaptive:
            # from here on, incoming push frames for this epoch install
            # directly instead of being stashed (no yields have happened
            # since the invalidation loop, so no frame can slip between)
            self._departed_epoch = epoch
            self._expected_frames.clear()
            self._push_stash = {
                p: v for p, v in self._push_stash.items() if v[0] == epoch
            }
            # pages already homed here push immediately — parked readers
            # are waiting on these frames, so every tick of delay counts;
            # pages migrating *to* this node can only push once the old
            # home's handoff is installed
            self._push_updates(push_plan, epoch, awaiting_handoff=False,
                               new_homes=new_homes)
            yield from self._await_handoffs(inval_writers, new_homes)
            yield from self._process_push_plan(push_plan, epoch)
            self._push_updates(push_plan, epoch, awaiting_handoff=True,
                               new_homes=new_homes)
        self._emit_census(pb)

    def _await_handoffs(self, inval_writers, new_homes):
        """New-home side of adaptive migration: invalidate the stale local
        copy and block (still inside the barrier) until the old home's
        handoff arrives, so the barrier never returns with a home page
        that cannot serve fetches."""
        # pass 1, no yields: invalidate and register every migrated-to-us
        # page before any suspension, so a fetch arriving mid-install of
        # one page cannot be served a stale copy of another
        pending = []
        for page, new_home in new_homes.items():
            if new_home != self.id:
                continue
            if not (inval_writers.get(page, set()) - {self.id}):
                continue  # sole writer: local copy already current
            self._invalidate(page)
            self._pending_handoff[page] = Event(
                self.sim, name=f"handoff[{self.id}:{page}]"
            )
            pending.append(page)
        if not pending:
            return
        waits = []
        for page in pending:
            data = self._handoff_data.pop(page, None)
            if data is None:
                waits.append(self._pending_handoff[page])
                continue
            # the hand frame overtook our departure; install inline
            yield from self._install_handoff(page, data)
            self._pending_handoff.pop(page).succeed()
            for requester, rid in self._handoff_waiters.pop(page, []):
                yield from self._serve_fetch(page, requester, rid)
        if not waits:
            return
        # a new wait point: phase it like any other page-update wait
        yield from bracket(self.sim, PH_PAGE_WAIT, waiting(*waits))

    def _emit_census(self, pb) -> None:
        """Counter sample of this node's page-state census (post-barrier;
        stamped by virtual time, not epoch).

        All counter args must stay numeric series values: Chrome stacks
        every ``args`` key as one band of the counter track.
        """
        if pb is None or "counter" not in pb.heard:
            return
        pb.counter(
            "counter", "page-census", node=self.id,
            **dict(zip(_STATE_NAMES, self.census)),
        )

    def handle_barrier(self, msg):
        """Comm-thread handler for the 'bar' channel."""
        _chan, kind, epoch = msg.tag
        if kind == "arr":
            if epoch <= self._bar_released:
                # late or duplicate arrival for an epoch already released:
                # drop it instead of resurrecting a ghost arrivals entry
                # that could never reach quorum again
                pb = self.sim.probe
                if pb is not None and "dsm.barrier" in pb.heard:
                    pb.instant("dsm.barrier", "drop-late", node=self.id,
                               epoch=epoch, src=msg.src)
                return
            if msg.src != self.id:
                self.stats.barrier_arrivals_rx += 1
            if self._fanin:
                # tree mode: the frame is a subtree's page-level aggregate
                _node, writers, bytes_by_page, fetched = msg.payload
                yield from self._tree_contribute(
                    epoch, writers, bytes_by_page, fetched
                )
                return
            assert self.id == self.master_id
            if len(msg.payload) == 3:
                node, notices, fetched = msg.payload
                for p in fetched:
                    self._push_interest.setdefault(p, {})[node] = epoch
            else:
                node, notices = msg.payload
            arrivals = self._bar_arrivals.setdefault(epoch, {})
            arrivals[node] = notices
            if len(arrivals) == self.system.cluster.n_nodes:
                yield from self._barrier_release(epoch, arrivals)
            return
        if kind == "dep":
            self._bar_released = max(self._bar_released, epoch)
            if self._fanin and self._bar_children:
                # fan the departure out down the tree before waking local
                # threads — the deeper subtrees' latency dominates
                pb = self.sim.probe
                fwd_nb = msg.nbytes - self.net.HEADER_BYTES
                for dst in self._bar_children:
                    self.stats.barrier_relays += 1
                    if pb is not None and "dsm.barrier" in pb.heard:
                        pb.instant("dsm.barrier", "fanout", node=self.id,
                                   epoch=epoch, dst=dst)
                    yield from self.net.send(self.id, dst, fwd_nb, msg.payload,
                                             tag=("bar", "dep", epoch))
            ev = self._bar_wait.pop(epoch)
            ev.succeed(msg.payload)
            return
        raise RuntimeError(f"unknown barrier message kind {kind!r}")  # pragma: no cover
        yield  # pragma: no cover

    def _tree_contribute(self, epoch: int, writers, bytes_by_page, fetched):
        """Fold one subtree contribution (our own arrival or a child's
        aggregate frame) into this node's per-epoch aggregate; once the
        whole subtree (self + every child) has contributed, forward one
        merged frame to the parent — or release, at the master."""
        agg = self._bar_agg.get(epoch)
        if agg is None:
            agg = self._bar_agg[epoch] = {
                "n": 0, "writers": {}, "bytes": {}, "fetched": {},
            }
        self.stats.notices_merged += fold_writer_sets(agg["writers"], writers)
        if bytes_by_page:
            fold_writer_bytes(agg["bytes"], bytes_by_page)
        if fetched:
            agg["fetched"].update(fetched)
        agg["n"] += 1
        if agg["n"] == 1 + len(self._bar_children):
            del self._bar_agg[epoch]
            yield from self._tree_forward(epoch, agg)

    def _tree_forward(self, epoch: int, agg):
        """A subtree is complete: merge cost, then one frame up — or the
        release itself when this node is the master."""
        writers = agg["writers"]
        # the in-tree merge costs CPU, same scale as the master's merge
        yield from self.node.busy_cpu(0.5e-6 + 0.1e-6 * len(writers))
        if self.id == self.master_id:
            yield from self._tree_release(epoch, agg)
            return
        pairs = sum(len(ws) for ws in writers.values())
        nb = 16 + 8 * len(writers) + 4 * pairs
        if self._accel_adaptive:
            nb += 4 * pairs  # sized aggregates: per-writer byte counts
            nb += sum(8 + 4 * len(pg) for pg in agg["fetched"].values())
            payload = (self.id, writers, agg["bytes"], agg["fetched"])
        else:
            payload = (self.id, writers, None, None)
        pb = self.sim.probe
        if pb is not None and "dsm.barrier" in pb.heard:
            pb.instant("dsm.barrier", "relay", node=self.id, epoch=epoch,
                       pages=len(writers), pairs=pairs,
                       subtree=1 + len(self._bar_children))
        if self._bar_children:
            self.stats.barrier_relays += 1
        yield from self.net.send(self.id, self._bar_parent, nb, payload,
                                 tag=("bar", "arr", epoch))

    def _tree_release(self, epoch: int, agg):
        """Master, tree mode: the aggregate is already page-level."""
        if self._accel_adaptive:
            self._update_migration_history(agg["bytes"])
            for node, pages in agg["fetched"].items():
                for p in pages:
                    self._push_interest.setdefault(p, {})[node] = epoch
        yield from self._release_epoch(epoch, agg["writers"])

    def _barrier_release(self, epoch: int, arrivals):
        """Master, flat mode: merge notices, then release the epoch."""
        del self._bar_arrivals[epoch]
        writers_by_page = merge_notices(arrivals)
        if self._accel_adaptive:
            self._update_migration_history(merge_notice_bytes(arrivals))
        yield from self._release_epoch(epoch, writers_by_page)

    def _release_epoch(self, epoch: int, writers_by_page):
        """Master: decide home migration, build the departure, send it —
        to every node directly (flat) or down the tree (hierarchical)."""
        pb = self.sim.probe
        new_homes: Dict[int, int] = {}

        def migrate(page: int, dst: int, **how) -> None:
            new_homes[page] = dst
            self.system.stats_home_migrations += 1
            if pb is not None and "dsm.page" in pb.heard:
                pb.instant("dsm.page", "home-migrate", node=self.id, page=page,
                           src=self.home[page], dst=dst, epoch=epoch, **how)

        if self._accel_adaptive:
            for page, writers in writers_by_page.items():
                old_home = self.home[page]
                hist = self._mig_hist.get(page)
                if not hist:
                    continue
                total = sum(hist.values())
                best_writer, best = max(
                    hist.items(), key=lambda kv: (kv[1], -kv[0])
                )
                if (
                    best_writer != old_home
                    and total > 0
                    and best > MIGRATION_SHARE * total
                ):
                    migrate(page, best_writer, adaptive=True)
        elif self.config.home_migration:
            for page, writers in writers_by_page.items():
                if len(writers) == 1:
                    (sole,) = tuple(writers)
                    if sole != self.home[page]:
                        migrate(page, sole)
                # multiple writers: current home keeps highest priority (§5.2.2)
        if self._accel_adaptive:
            # Push plan: for every written page, the readers that fetched
            # it recently and are about to be invalidated get a one-way
            # copy from the (possibly new) home right after departure.
            push_plan: Dict[int, tuple] = {}
            for page, writers in sorted(writers_by_page.items()):
                if self.kind[page] == KIND_OBJECT:
                    continue
                interest = self._push_interest.get(page)
                if not interest:
                    continue
                stale = [r for r, last in interest.items()
                         if epoch - last > PUSH_INTEREST_EPOCHS]
                for r in stale:
                    del interest[r]
                if not interest:
                    del self._push_interest[page]
                    continue
                final_home = new_homes.get(page, self.home[page])
                readers = tuple(
                    r for r in sorted(interest)
                    if r != final_home and (writers - {r})
                )
                if readers:
                    push_plan[page] = readers
            extra = {"pushes": len(push_plan)}
            payload = (writers_by_page, new_homes, push_plan)
            nb = (16 + 16 * len(writers_by_page) + 8 * len(new_homes)
                  + 8 * sum(len(v) for v in push_plan.values()))
        else:
            extra = {}
            payload = (writers_by_page, new_homes)
            nb = 16 + 16 * len(writers_by_page) + 8 * len(new_homes)
        if pb is not None and "dsm.barrier" in pb.heard:
            pb.instant("dsm.barrier", "release", node=self.id, epoch=epoch,
                       pages=len(writers_by_page), migrations=len(new_homes), **extra)
        # small CPU cost for the merge itself
        yield from self.node.busy_cpu(1e-6 + 0.2e-6 * len(writers_by_page))
        self._bar_released = max(self._bar_released, epoch)
        if self._fanin:
            for dst in self._bar_children:
                if pb is not None and "dsm.barrier" in pb.heard:
                    pb.instant("dsm.barrier", "fanout", node=self.id,
                               epoch=epoch, dst=dst)
                yield from self.net.send(self.id, dst, nb, payload,
                                         tag=("bar", "dep", epoch))
            # the master's own departure is local: wake the waiting thread
            # directly instead of a loopback frame
            ev = self._bar_wait.pop(epoch)
            ev.succeed(payload)
        else:
            for dst in range(self.system.cluster.n_nodes):
                yield from self.net.send(self.id, dst, nb, payload,
                                         tag=("bar", "dep", epoch))

    def _update_migration_history(self, bytes_by_page) -> None:
        """Fold this epoch's merged sized-notice bytes (page -> {writer:
        bytes}) into the per-page writer EWMA (halved every epoch; entries
        fading below one byte are dropped so the table tracks the working
        set, not the whole pool)."""
        hist = self._mig_hist
        dead = []
        for page, by_writer in hist.items():
            gone = []
            for w in by_writer:
                by_writer[w] *= 0.5
                if by_writer[w] < 1.0:
                    gone.append(w)
            for w in gone:
                del by_writer[w]
            if not by_writer:
                dead.append(page)
        for page in dead:
            del hist[page]
        for page, by_writer in bytes_by_page.items():
            cur = hist.setdefault(page, {})
            for w, nb in by_writer.items():
                cur[w] = cur.get(w, 0.0) + float(nb)

    # ------------------------------------------------------------------
    # distributed locks (LRC piggybacking; KDSM-style optional busy-wait)
    # ------------------------------------------------------------------
    def lock_directory_of(self, lock_id: int) -> int:
        """Static shard home of a lock: the node that serves (or, in
        locality mode, assigns and forwards) its acquire requests.
        ``"modulo"`` keeps the historical ``lock_id % n`` mapping; the
        other modes scatter consecutive lock ids across the cluster with
        a multiplicative hash so small id sets don't pile every manager
        onto the low nodes."""
        n = self.system.cluster.n_nodes
        if self.config.lock_shard == "modulo":
            return lock_id % n
        # Fibonacci hash, taking the *high* bits of the 32-bit product:
        # the multiplier is odd, so reducing the product mod a
        # power-of-two n would use only its low bits and collapse back
        # to the modulo mapping (2654435761 ≡ 1 mod 16).
        return (((lock_id * 2654435761) & 0xFFFFFFFF) >> 17) % n

    def lock_manager_of(self, lock_id: int) -> int:
        """The node this client sends lock traffic to.  In locality mode
        this is the cached first-toucher manager once a grant has taught
        us where the lock lives; until then, the directory (which
        forwards)."""
        if self.config.lock_shard == "locality":
            return self._lock_home.get(lock_id, self.lock_directory_of(lock_id))
        return self.lock_directory_of(lock_id)

    def lock_acquire(self, lock_id: int):
        """Acquire a global lock; applies piggybacked write notices."""
        if self.config.homeless:
            raise NotImplementedError(
                "the homeless-LRC ablation supports barrier synchronisation only"
            )
        self.stats.lock_acquires += 1
        manager = self.lock_manager_of(lock_id)
        req_id = self._next_req()
        ev = self._pending_event(req_id)
        if manager != self.id:
            self.stats.lock_remote_acquires += 1
        t0 = self.sim.now
        # request-to-grant, spin slices included (they surface as
        # *active* lock-wait — the KDSM busy-wait anomaly of Fig. 7)
        notices = yield from bracket(
            self.sim, PH_LOCK_WAIT, self._request_lock(lock_id, manager, req_id, ev)
        )
        if self.config.lock_shard == "locality":
            # the grant names the actual manager: cache it so later
            # acquires/releases skip the directory hop
            manager, notices = notices
            self._lock_home[lock_id] = manager
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            # request-to-grant; the "dsm.lock/acquire" span below also
            # covers applying the grant's notices
            pb.span(CAT_AUDIT, "lock-acquire", t0, node=self.id,
                    lock=lock_id, remote=manager != self.id)
        while self.dirty:
            # this node's own unflushed writes go to their homes first, as
            # at a release: a grant notice naming a page written here
            # since the last flush would otherwise invalidate it with its
            # twin un-sent (the lost update of ROADMAP item 1).  Again for
            # what a sibling thread wrote while the flush waited for acks
            own = yield from self._flush_dirty()
            self._close_interval(wn.page for wn in own)
            self._notices_since_barrier.extend(own)
        inval_before = self.stats.invalidations
        done: Set[int] = set()
        for wn in notices:
            if wn.writer == self.id or self.home[wn.page] == self.id:
                continue
            page = wn.page
            if page in done:
                continue
            done.add(page)
            self._invalidate(page)
            # a barrier-departure update push snapshotted before this
            # lock's release must not resurrect the page this window;
            # threads parked on that push must wake and fetch instead
            self._lock_invalidated.add(page)
            pev = self._expected_frames.pop(page, None)
            if pev is not None and not pev.triggered:
                pev.succeed()
        if pb is not None and "dsm.lock" in pb.heard:
            pb.span(
                "dsm.lock", "acquire", t0, node=self.id, lock=lock_id,
                manager=manager, remote=manager != self.id,
                notices=len(notices),
                invalidated=self.stats.invalidations - inval_before,
            )

    def _request_lock(self, lock_id: int, manager: int, req_id: int, ev: Event):
        """Send the acquire request and wait for the grant."""
        yield from self.net.send(
            self.id, manager, 12, (lock_id, self.id), tag=("lk", "acq", req_id)
        )
        if self.config.lock_spin:
            # KDSM busy-wait client: burn CPU slices until granted (§6.1).
            yield from self.node.spin_cpu(self.config.spin_slice, ev)
        granted = yield ev
        return granted

    def lock_release(self, lock_id: int):
        """Flush modifications, hand write notices to the manager."""
        manager = self.lock_manager_of(lock_id)
        t0 = self.sim.now
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "lock-release", node=self.id, lock=lock_id)
        flushed = yield from self._flush_dirty()
        self._close_interval(wn.page for wn in flushed)
        self._notices_since_barrier.extend(flushed)
        # every interval this node closed since it last released this lock
        # (or since the barrier): an acquire's flush and a sibling thread's
        # release of another lock close pages too, and nothing is dirty
        # here for what they shipped
        notices = dedupe_notices(
            self._notices_since_barrier[self._lock_published.get(lock_id, 0):]
        )
        self._lock_published[lock_id] = len(self._notices_since_barrier)
        nb = 16 + self._notice_nbytes * len(notices)
        # the notice hand-off is part of the release (flush) cost
        yield from bracket(
            self.sim, PH_FLUSH,
            self.net.send(self.id, manager, nb, (lock_id, notices),
                          tag=("lk", "rel", self._next_req())),
        )
        if pb is not None and "dsm.lock" in pb.heard:
            pb.span("dsm.lock", "release", t0, node=self.id, lock=lock_id,
                    manager=manager, notices=len(notices))

    def handle_lock(self, msg):
        """Comm-thread handler for the 'lk' channel (manager side)."""
        _chan, kind, req_id = msg.tag
        if kind == "acq":
            lock_id, requester = msg.payload
            if self.config.lock_shard == "locality":
                pb = self.sim.probe
                owner = self._lock_assign.get(lock_id)
                if owner is None:
                    if self.lock_directory_of(lock_id) == self.id:
                        # directory, first request: the first toucher
                        # becomes the lock's manager
                        owner = self._lock_assign[lock_id] = requester
                        if pb is not None and "dsm.lock" in pb.heard:
                            pb.instant("dsm.lock", "shard-assign",
                                       node=self.id, lock=lock_id,
                                       manager=requester)
                    else:
                        # the directory forwarded this frame to us: we are
                        # the assigned manager
                        owner = self._lock_assign[lock_id] = self.id
                if owner != self.id:
                    # request landed on the directory for a lock managed
                    # elsewhere (a client that hasn't learnt the manager
                    # yet): forward it, same tag so the grant still
                    # resolves the requester's original req_id
                    if pb is not None and "dsm.lock" in pb.heard:
                        pb.instant("dsm.lock", "forward", node=self.id,
                                   lock=lock_id, requester=requester,
                                   manager=owner)
                    yield from self.net.send(
                        self.id, owner, 12, msg.payload,
                        tag=("lk", "acq", req_id),
                    )
                    return
            log = self._lock_log.setdefault(lock_id, NoticeLog())
            holder = self._lock_holder.get(lock_id)
            if holder is None:
                self._lock_holder[lock_id] = requester
                yield from self._grant(lock_id, requester, req_id, log)
            else:
                self._lock_queue.setdefault(lock_id, []).append((requester, req_id))
            return
        if kind == "rel":
            lock_id, notices = msg.payload
            log = self._lock_log.setdefault(lock_id, NoticeLog())
            log.append(notices)
            queue = self._lock_queue.get(lock_id, [])
            if queue:
                requester, rid = queue.pop(0)
                self._lock_holder[lock_id] = requester
                yield from self._grant(lock_id, requester, rid, log)
            else:
                self._lock_holder[lock_id] = None
            return
        if kind == "gr":
            # grant arriving back at the requester
            self._resolve(req_id, msg.payload)
            return
        raise RuntimeError(f"unknown lock message kind {kind!r}")  # pragma: no cover

    def _grant(self, lock_id: int, requester: int, req_id: int, log: NoticeLog):
        self.stats.lock_grants += 1
        if requester != self.id:
            self.stats.lock_remote_grants += 1
        start = log.cursor_of(requester)
        pending = log.unseen_by(requester)
        # A node's own notices carry no information for it (the writer never
        # invalidates its own copy) — filter them here so the wire bytes and
        # the grant's notices= accounting reflect what the acquirer can act
        # on, instead of shipping them and discarding at apply time.  A
        # first-time consumer otherwise pays for the lock's entire history
        # of its own writes.
        notices = [wn for wn in pending if wn.writer != requester]
        pb = self.sim.probe
        if pb is not None and "dsm.lock" in pb.heard:
            # manager-side grant (the hot-lock table counts token hops) ...
            pb.instant("dsm.lock", "grant", node=self.id, lock=lock_id,
                       requester=requester, notices=len(notices))
        if pb is not None and CAT_AUDIT in pb.heard:
            # ... and its notice-log cursor move, checked live
            pb.instant(CAT_AUDIT, "grant", node=self.id, lock=lock_id,
                       requester=requester, start=start,
                       end=log.cursor_of(requester), log_len=len(log))
        nb = 16 + self._notice_nbytes * len(notices)
        payload = notices
        if self.config.lock_shard == "locality":
            # grants carry the manager id so clients learn (and cache)
            # where the lock lives after the first directory hop
            payload = (self.id, payload)
            nb += 4
        yield from self.net.send(self.id, requester, nb, payload, tag=("lk", "gr", req_id))
