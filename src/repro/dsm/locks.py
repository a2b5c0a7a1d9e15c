"""Distributed locks under lazy release consistency; the client
optionally busy-waits (KDSM).  Lock ``l`` is managed by node
``l % n_nodes``.

Which writes an acquirer must learn about is decided in one place,
:mod:`~repro.dsm.intervals`: a request carries the requester's vector, a
grant the intervals that vector does not cover and the lock's vector, a
release every interval its node knows that the lock's vector does not
cover, once its own flush's interval is covered.  The acquire flushes
until nothing is dirty before it applies the grant's notices, because a
DIRTY page is never invalidated (its twin would be dropped unsent).
"""

from __future__ import annotations

from repro.sim import Event
from repro.sim.probe import CAT_AUDIT, PH_FLUSH, PH_LOCK_WAIT, bracket


class LockMixin:
    """Lock client and manager of :class:`~repro.dsm.node.DsmNode`."""

    def lock_acquire(self, lock_id: int):
        """Acquire a global lock; applies piggybacked write notices."""
        self.stats.lock_acquires += 1
        manager = lock_id % self.n_nodes
        req_id = self._next_req()
        ev = self._pending_event(req_id)
        if manager != self.id:
            self.stats.lock_remote_acquires += 1
        t0 = self.sim.now
        # request-to-grant, spin slices included (they surface as
        # *active* lock-wait — the KDSM busy-wait anomaly of Fig. 7)
        notices, lock_vc = yield from bracket(
            self.sim, PH_LOCK_WAIT, self._request_lock(lock_id, manager, req_id, ev)
        )
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            # request-to-grant; the "dsm.lock/acquire" span below also
            # covers applying the grant's notices
            pb.span(CAT_AUDIT, "lock-acquire", t0, node=self.id,
                    lock=lock_id, remote=manager != self.id)
        while self.dirty:
            # a DIRTY page is never invalidated (its twin would go unsent):
            # this node's writes go home first — again for what a sibling
            # thread wrote while the flush waited for its acks
            yield from self._flush_dirty()
        inval_before = self.stats.invalidations
        for page in dict.fromkeys(wn.page for wn in notices):
            if self.home[page] != self.id:
                self._invalidate(page)
                if self.adaptive is not None:
                    self.adaptive.void_push(page)
        self.intervals.acquired(lock_id, notices, lock_vc)
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
            self.id, manager, 12 + self.intervals.nbytes,
            (lock_id, self.id, self._barrier_epoch, tuple(self.intervals.vc)),
            tag=("lk", "acq", req_id),
        )
        if self.config.lock_spin:
            # KDSM busy-wait client: burn CPU slices until granted (§6.1).
            yield from self.node.spin_cpu(self.config.spin_slice, ev)
        return (yield ev)

    def lock_release(self, lock_id: int):
        """Flush modifications, hand write notices to the manager."""
        manager = lock_id % self.n_nodes
        t0 = self.sim.now
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "lock-release", node=self.id, lock=lock_id)
        k = yield from self._flush_dirty()
        # a sibling thread's earlier flush may still have diffs on the wire
        yield from self.intervals.covered(k)
        notices, vc = self.intervals.to_publish(lock_id)
        nb = 16 + self.intervals.nbytes + self._notice_nbytes * len(notices)
        # the notice hand-off is part of the release (flush) cost
        yield from bracket(
            self.sim, PH_FLUSH,
            self.net.send(self.id, manager, nb,
                          (lock_id, self._barrier_epoch, vc, notices),
                          tag=("lk", "rel", self._next_req())),
        )
        if pb is not None and "dsm.lock" in pb.heard:
            pb.span("dsm.lock", "release", t0, node=self.id, lock=lock_id,
                    manager=manager, notices=len(notices))

    def handle_lock(self, msg):
        """Comm-thread handler for the 'lk' channel (manager side).  A
        lock's queue holds ``(req_id, request)`` pairs, its holder's
        first."""
        _chan, kind, req_id = msg.tag
        if kind == "acq":
            queue = self._lock_queue.setdefault(msg.payload[0], [])
            queue.append((req_id, msg.payload))
            if len(queue) == 1:
                yield from self._grant(req_id, *msg.payload)
        elif kind == "rel":
            lock_id, epoch, vc, notices = msg.payload
            self.intervals.released(lock_id, epoch, msg.src, vc, notices)
            queue = self._lock_queue[lock_id]
            queue.pop(0)
            if queue:
                rid, request = queue[0]
                yield from self._grant(rid, *request)
        elif kind == "gr":
            # grant arriving back at the requester
            self._resolve(req_id, msg.payload)
        else:  # pragma: no cover - protocol corruption guard
            raise RuntimeError(f"unknown lock message kind {kind!r}")

    def _grant(self, req_id: int, lock_id: int, requester: int, epoch: int, seen):
        self.stats.lock_grants += 1
        if requester != self.id:
            self.stats.lock_remote_grants += 1
        notices, vec, seen = self.intervals.grant(lock_id, requester, epoch, seen)
        pb = self.sim.probe
        if pb is not None and "dsm.lock" in pb.heard:
            # manager-side grant (the hot-lock table counts token hops) ...
            pb.instant("dsm.lock", "grant", node=self.id, lock=lock_id,
                       requester=requester, notices=len(notices))
        if pb is not None and CAT_AUDIT in pb.heard:
            # ... and the vectors it moves, checked live
            pb.instant(CAT_AUDIT, "grant", node=self.id, lock=lock_id,
                       requester=requester, seen=seen, vc=vec,
                       shipped=tuple((wn.writer, wn.interval) for wn in notices))
        nb = 16 + self.intervals.nbytes + self._notice_nbytes * len(notices)
        yield from self.net.send(self.id, requester, nb, (notices, vec),
                                 tag=("lk", "gr", req_id))
