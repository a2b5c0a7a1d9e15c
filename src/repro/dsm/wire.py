"""Request/reply plumbing and the comm-thread handler of the ``dsm``
channel: page fetches, homeless diff pulls, diff application at the home,
and the accelerator's one-way ``hand`` / ``push`` frames."""

from __future__ import annotations

from repro.sim import AnyOf, Event
from repro.dsm.diffs import apply_diff, diff_nbytes
from repro.dsm.states import PageState

#: reply kinds: each resolves the request it answers (acks carry None)
_REPLIES = frozenset({"fetchR", "dgetR", "diffR", "dbatR"})


class WireMixin:
    """Messaging of :class:`~repro.dsm.node.DsmNode`."""

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
            return (yield ev)
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
        return (yield ev)

    # -- handlers run on the communication thread ------------------------
    def handle_dsm(self, msg):
        """Comm-thread handler for the 'dsm' channel."""
        _chan, kind, req_id = msg.tag
        if kind in _REPLIES:
            self._resolve(req_id, msg.payload)
        elif kind == "fetch":
            page, requester = msg.payload
            yield from self._serve_fetch(page, requester, req_id)
        elif kind == "diff":
            page, diff = msg.payload
            yield from self._apply_incoming_diff(page, diff)
            yield from self.net.send(self.id, msg.src, 4, None, tag=("dsm", "diffR", req_id))
        elif kind == "dbat":
            # batched release: apply every (page, diff) record, ack once.
            # Rides the chaos ack/retransmit layer like "diff" — the frame
            # is exactly-once at the link layer, so per-page application
            # stays non-idempotent-safe.
            for page, diff in msg.payload:
                yield from self._apply_incoming_diff(page, diff)
            yield from self.net.send(self.id, msg.src, 4, None, tag=("dsm", "dbatR", req_id))
        elif kind == "dget":
            page, epoch, requester = msg.payload
            # every (page, epoch) a notice named was logged by the flush
            # that made the notice: a miss is protocol corruption
            diff = self._diff_log[(page, epoch)]
            self.stats.fetches_served += 1
            yield from self.net.send(
                self.id, requester, diff_nbytes(diff), diff, tag=("dsm", "dgetR", req_id)
            )
        elif kind == "hand":
            # adaptive migration: the old home ships its current copy to
            # the new home chosen at the barrier (fire-and-forget;
            # exactly-once at the link layer)
            yield from self.adaptive.receive_handoff(msg.payload)
        elif kind == "push":
            # update push: a home forwards the fresh copy of a page this
            # node is predicted to re-fetch (fire-and-forget; dropped
            # whenever installing would not be sound)
            yield from self.adaptive.receive_push(msg.payload, msg.src)
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
        if self.adaptive is not None and self.adaptive.parks_fetch(page, requester, req_id):
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
