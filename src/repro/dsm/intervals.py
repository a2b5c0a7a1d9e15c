"""Lazy-release-consistency intervals with vector timestamps: the one
rule for which writes an acquirer must learn about (HLRC, Zhou, Iftode &
Li, OSDI '96, with the interval and vector-timestamp scheme of
TreadMarks, Keleher et al.).

* Each node numbers its intervals.  Every flush — a release's, an
  acquire's, a barrier's — opens one and closes it once its diffs are
  acknowledged, with the write notices of the pages it covered.
* ``vc[j]`` is the last interval of node ``j`` this node knows, with
  every earlier one of ``j``.  The node's own entry advances only over a
  completed prefix of its intervals: a release waits until its own is
  covered (:meth:`Intervals.covered`), so it cannot overtake a sibling
  thread's diff still on the wire.
* ``log`` holds the notices of every interval this node knows in the
  current barrier epoch, its own and those learned through any lock,
  one per (page, writer): the latest interval's covers the others.  A
  release hands its lock's manager the part that the lock's vector,
  received with the grant, does not cover.  The manager keeps one log
  and one vector per lock; a grant ships what the requester's vector
  does not cover — the one its request carried, raised to the one its
  node's last release of the lock carried (a sibling thread's request
  queues with the vector of before its sibling's grant).
* A barrier covers every interval closed before it, for every node — it
  is the merged vector — so it truncates every log.  A manager's
  per-lock log is truncated by epoch when a later epoch first reaches
  it, since a post-barrier release may arrive before the manager's own
  departure.

This is the only module that writes interval-log or vector state
(``tests/test_dsm_units.py`` scans for any other).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sim import Event
from repro.dsm.writenotice import WriteNotice, fold_latest

#: wire bytes per vector-timestamp entry
VC_ENTRY_BYTES = 4


class Intervals:
    """One node's intervals and vector, and the per-lock logs and vectors
    of the locks it manages."""

    def __init__(self, sim, node_id: int, n_nodes: int):
        self.sim = sim
        self.id = node_id
        self.n_nodes = n_nodes
        #: wire bytes of one vector timestamp
        self.nbytes = VC_ENTRY_BYTES * n_nodes
        self.vc: List[int] = [0] * n_nodes
        self.log: Dict[Tuple[int, int], WriteNotice] = {}
        #: the last interval number this node handed out
        self.opened = 0
        #: own intervals closed past the covered prefix -> their notices
        self._closed: Dict[int, List[WriteNotice]] = {}
        #: own interval -> event fired once the vector covers it
        self._waiting: Dict[int, Event] = {}
        #: lock held on this node -> the lock's vector at its grant
        self._granted: Dict[int, Tuple[int, ...]] = {}
        #: managed lock -> [epoch, vector, log, {node: its last release's vector}]
        self._locks: Dict[int, list] = {}

    # -- this node's intervals ------------------------------------------
    def open(self) -> int:
        self.opened += 1
        return self.opened

    def close(self, k: int, notices: List[WriteNotice]) -> None:
        """Own interval *k* is complete; the vector advances over the
        completed prefix and the log takes each interval it covers."""
        closed, vc, me = self._closed, self.vc, self.id
        closed[k] = notices
        while vc[me] + 1 in closed:
            vc[me] += 1
            fold_latest(self.log, closed.pop(vc[me]))
            ev = self._waiting.pop(vc[me], None)
            if ev is not None:
                ev.succeed()

    def covered(self, k: int):
        """Wait until this node's vector covers its own interval *k*."""
        if self.vc[self.id] < k:
            yield self._waiting.setdefault(k, Event(self.sim, name=f"covered[{self.id}:{k}]"))

    def barrier(self) -> List[WriteNotice]:
        """Barrier arrival: this node's own notices since the last barrier.
        The barrier covers the whole log, which is truncated."""
        own = [wn for wn in self.log.values() if wn.writer == self.id]
        self.log = {}
        return own

    # -- lock client ----------------------------------------------------
    def acquired(self, lock_id: int, notices: List[WriteNotice], lock_vc) -> None:
        """A grant: learn its intervals and the lock's vector (whose own
        entry never exceeds this node's)."""
        fold_latest(self.log, notices)
        self.vc[:] = map(max, self.vc, lock_vc)
        self._granted[lock_id] = lock_vc

    def to_publish(self, lock_id: int):
        """A release: the notices the lock's vector at the grant does not
        cover, and this node's vector."""
        lock_vc = self._granted.pop(lock_id)
        pending = [wn for wn in self.log.values() if wn.interval > lock_vc[wn.writer]]
        return pending, tuple(self.vc)

    # -- lock manager ---------------------------------------------------
    def _lock(self, lock_id: int, epoch: int) -> list:
        """The [epoch, vector, log, releasers] of a managed lock, its log
        truncated when *epoch* is past the barrier it was written in."""
        state = self._locks.setdefault(lock_id, [epoch, [0] * self.n_nodes, {}, {}])
        if state[0] < epoch:
            state[0], state[2] = epoch, {}
        return state

    def released(self, lock_id: int, epoch: int, releaser: int, vc,
                 notices: List[WriteNotice]) -> None:
        _epoch, vec, log, releasers = self._lock(lock_id, epoch)
        fold_latest(log, notices)
        releasers[releaser] = vc
        vec[:] = map(max, vec, vc)

    def grant(self, lock_id: int, requester: int, epoch: int, seen):
        """The notices of every interval in the lock's log the requester
        has not seen — none of its own, which carry no information for it
        — the lock's vector, and the requester's vector they were
        filtered by."""
        _epoch, vec, log, releasers = self._lock(lock_id, epoch)
        seen = tuple(map(max, seen, releasers.get(requester, seen)))
        notices = [
            wn for wn in log.values() if wn.writer != requester and wn.interval > seen[wn.writer]
        ]
        return notices, tuple(vec), seen
