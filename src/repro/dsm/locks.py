"""Distributed locks with lazy-release-consistency write-notice
piggybacking; the client optionally busy-waits (KDSM).  Lock ``l`` is
managed by node ``l % n_nodes``.

The lock path carries three patches against lost writes: flush-until-
clean at acquire and the ``_lock_published`` cursor a release publishes
from, both here, and ``_flushes_in_flight`` in :mod:`~repro.dsm.flush`
(no flush returns while another has acks out).  Their state sits side
by side in ``DsmNodeBase.__init__``.
"""

from __future__ import annotations

from typing import Set

from repro.sim import Event
from repro.dsm.writenotice import NoticeLog, dedupe_notices
from repro.sim.probe import CAT_AUDIT, PH_FLUSH, PH_LOCK_WAIT, bracket


class LockMixin:
    """Lock client and manager of :class:`~repro.dsm.node.DsmNode`."""

    def lock_acquire(self, lock_id: int):
        """Acquire a global lock; applies piggybacked write notices."""
        if self.config.homeless:
            raise NotImplementedError(
                "the homeless-LRC ablation supports barrier synchronisation only"
            )
        self.stats.lock_acquires += 1
        manager = lock_id % self.n_nodes
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
            if self.adaptive is not None:
                self.adaptive.void_push(page)
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
        return (yield ev)

    def lock_release(self, lock_id: int):
        """Flush modifications, hand write notices to the manager."""
        manager = lock_id % self.n_nodes
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
            log = self._lock_log.setdefault(lock_id, NoticeLog())
            holder = self._lock_holder.get(lock_id)
            if holder is None:
                self._lock_holder[lock_id] = requester
                yield from self._grant(lock_id, requester, req_id, log)
            else:
                self._lock_queue.setdefault(lock_id, []).append((requester, req_id))
        elif kind == "rel":
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
        elif kind == "gr":
            # grant arriving back at the requester
            self._resolve(req_id, msg.payload)
        else:  # pragma: no cover - protocol corruption guard
            raise RuntimeError(f"unknown lock message kind {kind!r}")

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
        yield from self.net.send(self.id, requester, nb, notices, tag=("lk", "gr", req_id))
