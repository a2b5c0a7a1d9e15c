"""Happens-before sanitizer: data-race detector + live protocol checks.

The :class:`Sanitizer` is a subscriber of the simulation's probe bus
(:mod:`repro.sim.probe`): detached it costs nothing beyond the bus's own
``sim.probe is None`` guard, attached it consumes every DSM access and
synchronisation fact of the run — the ``audit`` kinds plus three trace
kinds (page-state, barrier arrive/depart); ``Sanitizer._handlers`` lists
them.

Happens-before model
--------------------
Each simulation thread (process label) carries a sparse vector clock.
Edges come only from *semantic* synchronisation, never from simulator
event plumbing (a comm thread relaying two unrelated messages must not
order them):

* fork/join of parallel-region threads (``ParadeRuntime``);
* MPI point-to-point FIFO channels keyed ``(comm, src, dst, tag)`` —
  which covers every collective, since bcast/reduce/gather/scatter are
  trees of sends and receives;
* pthread :class:`~repro.sim.Mutex` acquire/release and the distributed
  DSM lock (lazy-release-consistency grant order);
* the team combining pattern: contributor -> leader at the gather,
  leader -> waiters at the gate;
* DSM barrier arrive/depart through a per-epoch clock bucket.

Shadow memory is page-indexed (matching the protocol's invalidation
granularity) but each record keeps its exact byte range, so false sharing
— distinct variables on one page — does not produce false positives: a
race additionally requires overlapping bytes with at least one write and
neither access ordered before the other.

Live protocol invariants (promoted from the offline
:mod:`repro.trace.checker`):

* Figure-5 page-state transition legality and per-page chain continuity;
* ``NoticeLog`` per-consumer cursor monotonicity at lock grants;
* barrier-epoch agreement (consecutive per node, one arrival per node
  per epoch, epochs complete in order).

When a global barrier completes (all nodes arrived), every application
thread is blocked at it, so the shadow memory is cleared — accesses in
different barrier intervals can never race.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

from repro.dsm.states import PageState, is_valid_transition
from repro.sanitizer.clocks import VectorClock, ordered_before, vc_copy, vc_join
from repro.sim.probe import CAT_AUDIT, Subscriber

#: shadow record list indices (records are mutable for range merging)
_LO, _HI, _TID, _EPOCH, _WRITE, _WHAT, _TIME, _NODE = range(8)


@dataclass(frozen=True)
class Finding:
    """One sanitizer diagnosis: a data race or an invariant violation."""

    kind: str  #: "data-race" or an invariant id ("epoch-order", ...)
    message: str
    time: float  #: virtual time of detection
    details: Tuple = ()

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"[{self.kind} @t={self.time:.6g}] {self.message}"


@dataclass
class AccessSite:
    """One side of a data race, named in the report."""

    tid: str
    node: int
    write: bool
    lo: int
    hi: int
    what: str
    time: float

    def describe(self) -> str:
        mode = "write" if self.write else "read"
        target = self.what or f"bytes [{self.lo:#x}, {self.hi:#x})"
        return f"{mode} of {target} by {self.tid} (node {self.node}, t={self.time:.6g})"


class Sanitizer(Subscriber):
    """Vector-clock happens-before checker over a running simulation.

    Parameters
    ----------
    sim : the simulator to attach to (subscribes to ``sim.probe``
        immediately)
    n_nodes : cluster size — needed to tell when a barrier epoch is
        complete (shadow memory resets there)
    page_size : shadow-memory bucket granularity (the DSM page size)
    max_records_per_page : cap per shadow bucket; oldest records are
        evicted beyond it (counted in :attr:`records_evicted`)
    """

    def __init__(self, sim, n_nodes: int, page_size: int, max_records_per_page: int = 512):
        self.sim = sim
        self.n_nodes = n_nodes
        self.page_size = page_size
        self.max_records_per_page = max_records_per_page

        #: tid -> vector clock
        self._vc: Dict[str, VectorClock] = {}
        #: lock key -> clock published at the last release
        self._lock_vc: Dict[Any, VectorClock] = {}
        #: combining-gather key -> accumulated contributor clocks
        self._gather_vc: Dict[Any, VectorClock] = {}
        #: gate key -> [opener clock, waiters remaining]
        self._gate_vc: Dict[Any, list] = {}
        #: message channel key -> FIFO of sender clocks
        self._chan: Dict[Any, deque] = {}
        #: barrier epoch -> {"vc": joined clock, "nodes": arrived set}
        self._bar: Dict[int, dict] = {}
        self._bar_completed = -1
        #: node -> last barrier epoch it arrived at
        self._node_epoch: Dict[int, int] = {}
        #: page index -> shadow records (see _LO.._NODE)
        self._shadow: Dict[int, List[list]] = {}
        #: (node, page) -> last page state seen (chain continuity)
        self._page_state: Dict[Tuple[int, int], Any] = {}
        #: (manager, lock, consumer) -> last grant end cursor
        self._cursors: Dict[Tuple[int, int, int], int] = {}
        self._seen: Set = set()

        self.findings: List[Finding] = []
        self.accesses_checked = 0
        self.sync_ops = 0
        self.records_evicted = 0
        self.barrier_resets = 0

        #: probe kind -> handler(args, node, tid, t0, ph)
        self._handlers = {
            (CAT_AUDIT, "access"): lambda a, node, *_: self.on_access(node, **a),
            (CAT_AUDIT, "fork"): lambda a, *_: self.on_fork(a["children"]),
            (CAT_AUDIT, "join"): lambda a, *_: self.on_join(a["children"]),
            (CAT_AUDIT, "acquire"): lambda a, *_: self.on_lock_acquire(a["key"]),
            (CAT_AUDIT, "release"): lambda a, *_: self.on_lock_release(a["key"]),
            (CAT_AUDIT, "lock-acquire"):
                lambda a, *_: self.on_lock_acquire(("dsm-lock", a["lock"])),
            (CAT_AUDIT, "lock-release"):
                lambda a, *_: self.on_lock_release(("dsm-lock", a["lock"])),
            (CAT_AUDIT, "gather"): lambda a, *_: self.on_gather(**a),
            (CAT_AUDIT, "gate-open"): lambda a, *_: self.on_gate_open(**a),
            (CAT_AUDIT, "gate-wait"): lambda a, *_: self.on_gate_wait(a["key"]),
            (CAT_AUDIT, "send"): lambda a, *_: self.on_msg_send(a["key"]),
            (CAT_AUDIT, "recv"): lambda a, *_: self.on_msg_recv(a["key"]),
            (CAT_AUDIT, "grant"): lambda a, node, *_: self.on_lock_grant(
                node, a["lock"], a["requester"], a["start"], a["end"], a["log_len"]
            ),
            ("dsm.barrier", "arrive"):
                lambda a, node, *_: self.on_barrier_arrive(node, a["epoch"]),
            ("dsm.barrier", "barrier"):
                lambda a, node, *_: self.on_barrier_depart(node, a["epoch"]),
            ("dsm.page", "page-state"): lambda a, node, *_: self.on_page_state(
                node, a["page"], PageState[a["src"]], PageState[a["dst"]], a["reason"]
            ),
        }
        self.attach()

    # -- report ---------------------------------------------------------
    @property
    def races(self) -> List[Finding]:
        return [f for f in self.findings if f.kind == "data-race"]

    @property
    def violations(self) -> List[Finding]:
        return [f for f in self.findings if f.kind != "data-race"]

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        head = "sanitizer: OK" if self.ok else (
            f"sanitizer: {len(self.races)} data race(s), "
            f"{len(self.violations)} invariant violation(s)"
        )
        return (
            f"{head} — {self.accesses_checked} accesses checked, "
            f"{self.sync_ops} sync ops, {self.barrier_resets} barrier epochs, "
            f"{self.records_evicted} shadow records evicted"
        )

    def format_report(self) -> str:
        lines = [self.summary()]
        for f in self.findings:
            lines.append(f"  [{f.kind} @t={f.time:.6g}] {f.message}")
        return "\n".join(lines)

    # -- internals ------------------------------------------------------
    def _tid(self) -> str:
        proc = self.sim.active_process
        if proc is not None and proc.label:
            return proc.label
        return "main"

    def _vc_of(self, tid: str) -> VectorClock:
        vc = self._vc.get(tid)
        if vc is None:
            vc = self._vc[tid] = {tid: 1}
        return vc

    def _violation(self, kind: str, message: str, dedup=None, details: Tuple = ()) -> None:
        if dedup is not None:
            key = (kind, dedup)
            if key in self._seen:
                return
            self._seen.add(key)
        self.findings.append(Finding(kind, message, self.sim.now, details))

    # ------------------------------------------------------------------
    # shadow memory: the race detector proper
    # ------------------------------------------------------------------
    def on_access(self, node: int, addr: int, nbytes: int, write: bool, what: str = "") -> None:
        """Record one DSM access (fast path or fault path) and check it
        against every unordered overlapping record of the touched pages."""
        if nbytes <= 0:
            return
        self.accesses_checked += 1
        tid = self._tid()
        vc = self._vc_of(tid)
        epoch = vc[tid]
        now = self.sim.now
        ps = self.page_size
        end = addr + nbytes
        for page in range(addr // ps, (end - 1) // ps + 1):
            lo = addr if addr > page * ps else page * ps
            page_end = (page + 1) * ps
            hi = end if end < page_end else page_end
            bucket = self._shadow.get(page)
            if bucket is None:
                self._shadow[page] = [[lo, hi, tid, epoch, write, what, now, node]]
                continue
            merged = False
            for rec in bucket:
                if rec[_LO] < hi and lo < rec[_HI] and rec[_TID] != tid \
                        and (write or rec[_WRITE]) \
                        and not ordered_before(rec[_TID], rec[_EPOCH], vc):
                    self._report_race(page, rec, lo, hi, tid, write, what, now, node)
                if (not merged and rec[_TID] == tid and rec[_EPOCH] == epoch
                        and rec[_WRITE] == write and rec[_LO] <= hi and lo <= rec[_HI]):
                    # same thread, same epoch, same mode, touching range:
                    # extend in place instead of growing the bucket
                    if lo < rec[_LO]:
                        rec[_LO] = lo
                    if hi > rec[_HI]:
                        rec[_HI] = hi
                    rec[_TIME] = now
                    merged = True
            if not merged:
                if len(bucket) >= self.max_records_per_page:
                    bucket.pop(0)
                    self.records_evicted += 1
                bucket.append([lo, hi, tid, epoch, write, what, now, node])

    def _report_race(self, page: int, rec: list, lo: int, hi: int,
                     tid: str, write: bool, what: str, now: float, node: int) -> None:
        old = AccessSite(rec[_TID], rec[_NODE], rec[_WRITE],
                         rec[_LO], rec[_HI], rec[_WHAT], rec[_TIME])
        new = AccessSite(tid, node, write, lo, hi, what, now)
        dedup = (page, tuple(sorted([(old.tid, old.what, old.write),
                                     (new.tid, new.what, new.write)])))
        if ("data-race", dedup) in self._seen:
            return
        self._seen.add(("data-race", dedup))
        ov_lo = max(old.lo, new.lo)
        ov_hi = min(old.hi, new.hi)
        self.findings.append(Finding(
            "data-race",
            f"unordered conflicting accesses to page {page} "
            f"(bytes [{ov_lo:#x}, {ov_hi:#x})): "
            f"{new.describe()} races with earlier {old.describe()}",
            now,
            details=(old, new),
        ))

    # ------------------------------------------------------------------
    # happens-before edges
    # ------------------------------------------------------------------
    def on_fork(self, child_tids) -> None:
        """Parent forks children: each child starts from the parent's
        clock; the parent moves to a fresh epoch so its later accesses are
        not mistaken as ordered before the children's."""
        self.sync_ops += 1
        tid = self._tid()
        vc = self._vc_of(tid)
        snap = vc_copy(vc)
        vc[tid] += 1
        for child in child_tids:
            cvc = vc_copy(snap)
            cvc[child] = snap.get(child, 0) + 1
            self._vc[child] = cvc

    def on_join(self, child_tids) -> None:
        """Parent joins children: absorbs their final clocks."""
        self.sync_ops += 1
        vc = self._vc_of(self._tid())
        for child in child_tids:
            cvc = self._vc.pop(child, None)
            if cvc is not None:
                vc_join(vc, cvc)

    def on_lock_acquire(self, key) -> None:
        self.sync_ops += 1
        rel = self._lock_vc.get(key)
        if rel is not None:
            vc_join(self._vc_of(self._tid()), rel)

    def on_lock_release(self, key) -> None:
        self.sync_ops += 1
        tid = self._tid()
        vc = self._vc_of(tid)
        self._lock_vc[key] = vc_copy(vc)
        vc[tid] += 1

    def on_gather(self, key, leader: bool = False) -> None:
        """A thread contributes to a combining instance (release); the last
        arriver, the *leader*, then absorbs every contribution (acquire)."""
        self.sync_ops += 1
        tid = self._tid()
        vc = self._vc_of(tid)
        acc = self._gather_vc.get(key)
        if acc is None:
            acc = self._gather_vc[key] = {}
        vc_join(acc, vc)
        vc[tid] += 1
        if leader:
            vc_join(vc, self._gather_vc.pop(key))

    def on_gate_open(self, key, waiters: int) -> None:
        """Leader/winner publishes its clock for *waiters* gate waiters."""
        self.sync_ops += 1
        tid = self._tid()
        vc = self._vc_of(tid)
        if waiters > 0:
            self._gate_vc[key] = [vc_copy(vc), waiters]
        vc[tid] += 1

    def on_gate_wait(self, key) -> None:
        entry = self._gate_vc.get(key)
        if entry is None:
            return
        vc_join(self._vc_of(self._tid()), entry[0])
        entry[1] -= 1
        if entry[1] <= 0:
            del self._gate_vc[key]

    def on_msg_send(self, key) -> None:
        """MPI p2p send: push the sender's clock on the channel FIFO."""
        self.sync_ops += 1
        tid = self._tid()
        vc = self._vc_of(tid)
        q = self._chan.get(key)
        if q is None:
            q = self._chan[key] = deque()
        q.append(vc_copy(vc))
        vc[tid] += 1

    def on_msg_recv(self, key) -> None:
        q = self._chan.get(key)
        if q:
            vc_join(self._vc_of(self._tid()), q.popleft())
            if not q:
                del self._chan[key]

    # ------------------------------------------------------------------
    # DSM barrier: HB edges + epoch-agreement invariant + shadow reset
    # ------------------------------------------------------------------
    def on_barrier_arrive(self, node: int, epoch: int) -> None:
        self.sync_ops += 1
        tid = self._tid()
        vc = self._vc_of(tid)
        last = self._node_epoch.get(node)
        expected = 0 if last is None else last + 1
        if epoch != expected:
            self._violation(
                "epoch-order",
                f"node {node} arrived at barrier epoch {epoch}, expected {expected}",
                dedup=(node, epoch),
            )
        self._node_epoch[node] = epoch
        if epoch <= self._bar_completed:
            self._violation(
                "epoch-order",
                f"node {node} arrived at barrier epoch {epoch} after it completed",
                dedup=("late", node, epoch),
            )
        bucket = self._bar.get(epoch)
        if bucket is None:
            bucket = self._bar[epoch] = {"vc": {}, "nodes": set()}
        if node in bucket["nodes"]:
            self._violation(
                "epoch-membership",
                f"node {node} arrived twice at barrier epoch {epoch}",
                dedup=("dup", node, epoch),
            )
        bucket["nodes"].add(node)
        vc_join(bucket["vc"], vc)
        vc[tid] += 1
        if len(bucket["nodes"]) == self.n_nodes:
            if epoch != self._bar_completed + 1:
                self._violation(
                    "epoch-order",
                    f"barrier epoch {epoch} completed after epoch {self._bar_completed}",
                    dedup=("complete", epoch),
                )
            self._bar_completed = epoch
            self._bar.pop(epoch - 1, None)
            # every application thread is blocked at this barrier now, so
            # pre-barrier accesses can no longer race with anything
            self._shadow.clear()
            self.barrier_resets += 1

    def on_barrier_depart(self, node: int, epoch: int) -> None:
        del node
        tid = self._tid()
        vc = self._vc_of(tid)
        bucket = self._bar.get(epoch)
        if bucket is not None:
            vc_join(vc, bucket["vc"])
        vc[tid] += 1

    # ------------------------------------------------------------------
    # live protocol invariants
    # ------------------------------------------------------------------
    def on_page_state(self, node: int, page: int, src, dst, reason: str) -> None:
        """Called for every page-state transition, before it is applied."""
        if not is_valid_transition(src, dst, reason):
            self._violation(
                "illegal-transition",
                f"node {node} page {page}: {src.name} -> {dst.name} ({reason!r}) "
                f"is not a Figure-5 transition",
                dedup=(node, page, src, dst, reason),
            )
        prev = self._page_state.get((node, page))
        if prev is not None and prev != src:
            self._violation(
                "broken-chain",
                f"node {node} page {page}: transition starts at {src.name} but the "
                f"last observed state was {prev.name}",
                dedup=("chain", node, page, prev, src),
            )
        self._page_state[(node, page)] = dst

    def on_lock_grant(self, manager: int, lock_id: int, requester: int,
                      start: int, end: int, log_len: int) -> None:
        """NoticeLog cursor monotonicity: each consumer's cursor only
        moves forward and never beyond the log."""
        key = (manager, lock_id, requester)
        prev = self._cursors.get(key, 0)
        if start < prev:
            self._violation(
                "cursor-regression",
                f"lock {lock_id} manager {manager}: consumer {requester} cursor "
                f"moved back from {prev} to {start}",
                dedup=key + (start,),
            )
        if end < start or end > log_len:
            self._violation(
                "cursor-regression",
                f"lock {lock_id} manager {manager}: consumer {requester} cursor "
                f"advanced to {end} outside [{start}, {log_len}]",
                dedup=key + ("range", end),
            )
        self._cursors[key] = max(prev, end)
