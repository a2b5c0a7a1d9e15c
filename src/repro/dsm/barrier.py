"""The HLRC barrier (one caller per node per epoch; ParADE §5.2.2):
flush, arrival with write notices, the master's merge and home-migration
decision, departure with invalidations and new homes — flat (every node
talks to node 0) or as a k-ary tree (``DsmConfig.barrier_fanin``).

One payload shape each way: an arrival is ``(node, notices, fetched)``, a
departure ``(writers, new_homes, push_plan)``; ``fetched`` and
``push_plan`` stay empty unless the adaptive accelerator is on.
"""

from __future__ import annotations

from typing import Dict

from repro.sim import Event
from repro.dsm.states import PageState
from repro.dsm.writenotice import (
    fold_writer_bytes, fold_writer_sets, merge_notices, merge_notice_bytes,
)
from repro.sim.probe import CAT_AUDIT, PH_BARRIER, bracket

#: census counter-track keys, in ``PageState.idx`` order
_STATE_NAMES = tuple(st.name for st in PageState)


class BarrierMixin:
    """Barrier of :class:`~repro.dsm.node.DsmNode`."""

    #: the node that merges arrivals and releases every epoch
    master_id = 0

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
        adaptive = self.adaptive
        k = yield from self._flush_dirty()
        yield from self.intervals.covered(k)
        # every interval this node closed since the last barrier
        notices = self.intervals.barrier()

        wait = Event(self.sim, name=f"bardep[{self.id}:{epoch}]")
        self._bar_wait[epoch] = wait
        # update-push interest: pages remote-fetched this window (4 B per
        # page id on the wire)
        fetched = adaptive.take_fetched() if adaptive is not None else []
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
                merge_notice_bytes(own) if adaptive is not None else None,
                {self.id: tuple(fetched)} if fetched else {},
            )
        else:
            nb = 16 + self._notice_nbytes * len(notices) + 4 * len(fetched)
            yield from self.net.send(self.id, self.master_id, nb,
                                     (self.id, notices, fetched),
                                     tag=("bar", "arr", epoch))
        inval_writers, new_homes, push_plan = yield wait
        if pb is not None and "dsm.barrier" in pb.heard:
            pb.span("dsm.barrier", "barrier", bar_t0, node=self.id,
                    epoch=epoch, notices=len(notices))

        if adaptive is not None:
            yield from adaptive.ship_handoffs(epoch, inval_writers, new_homes)
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
        if adaptive is not None:
            yield from adaptive.after_departure(epoch, inval_writers, new_homes, push_plan)
        self._emit_census(pb)

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
                yield from self._tree_contribute(epoch, writers, bytes_by_page, fetched)
                return
            assert self.id == self.master_id
            node, notices, fetched = msg.payload
            if fetched:
                self.adaptive.note_interest({node: fetched}, epoch)
            arrivals = self._bar_arrivals.setdefault(epoch, {})
            arrivals[node] = notices
            if len(arrivals) == self.n_nodes:
                yield from self._barrier_release(epoch, arrivals)
        elif kind == "dep":
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
            self._bar_wait.pop(epoch).succeed(msg.payload)
        else:  # pragma: no cover - protocol corruption guard
            raise RuntimeError(f"unknown barrier message kind {kind!r}")

    def _tree_contribute(self, epoch: int, writers, bytes_by_page, fetched):
        """Fold one subtree contribution (our own arrival or a child's
        aggregate frame) into this node's per-epoch aggregate; once the
        whole subtree (self + every child) has contributed, forward one
        merged frame to the parent — or release, at the master."""
        agg = self._bar_agg.get(epoch)
        if agg is None:
            agg = self._bar_agg[epoch] = {"n": 0, "writers": {}, "bytes": {}, "fetched": {}}
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
            # the aggregate is already page-level
            if self.adaptive is not None:
                self.adaptive.fold_history(agg["bytes"])
                self.adaptive.note_interest(agg["fetched"], epoch)
            yield from self._release_epoch(epoch, writers)
            return
        pairs = sum(len(ws) for ws in writers.values())
        nb = 16 + 8 * len(writers) + 4 * pairs
        if self.adaptive is not None:
            nb += 4 * pairs  # sized aggregates: per-writer byte counts
        nb += sum(8 + 4 * len(pg) for pg in agg["fetched"].values())
        pb = self.sim.probe
        if pb is not None and "dsm.barrier" in pb.heard:
            pb.instant("dsm.barrier", "relay", node=self.id, epoch=epoch,
                       pages=len(writers), pairs=pairs,
                       subtree=1 + len(self._bar_children))
        if self._bar_children:
            self.stats.barrier_relays += 1
        yield from self.net.send(self.id, self._bar_parent, nb,
                                 (self.id, writers, agg["bytes"], agg["fetched"]),
                                 tag=("bar", "arr", epoch))

    def _barrier_release(self, epoch: int, arrivals):
        """Master, flat mode: merge notices, then release the epoch."""
        del self._bar_arrivals[epoch]
        writers_by_page = merge_notices(arrivals)
        if self.adaptive is not None:
            self.adaptive.fold_history(merge_notice_bytes(arrivals))
        yield from self._release_epoch(epoch, writers_by_page)

    def _sole_writer_moves(self, writers_by_page):
        """The eager home-migration rule (§5.2.2): a page written by one
        node only moves to it; with several writers the current home keeps
        highest priority."""
        home = self.home
        for page, writers in writers_by_page.items():
            if len(writers) == 1:
                (sole,) = writers
                if sole != home[page]:
                    yield page, sole, {}

    def _release_epoch(self, epoch: int, writers_by_page):
        """Master: decide home migration, build the departure, send it —
        to every node directly (flat) or down the tree (hierarchical)."""
        pb = self.sim.probe
        new_homes: Dict[int, int] = {}
        for page, dst, how in self._home_moves(writers_by_page):
            new_homes[page] = dst
            self.system.stats_home_migrations += 1
            if pb is not None and "dsm.page" in pb.heard:
                pb.instant("dsm.page", "home-migrate", node=self.id, page=page,
                           src=self.home[page], dst=dst, epoch=epoch, **how)
        if self.adaptive is not None:
            push_plan = self.adaptive.push_plan(epoch, writers_by_page, new_homes)
            extra = {"pushes": len(push_plan)}
        else:
            push_plan, extra = {}, {}
        payload = (writers_by_page, new_homes, push_plan)
        nb = (16 + 16 * len(writers_by_page) + 8 * len(new_homes)
              + 8 * sum(len(v) for v in push_plan.values()))
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
            self._bar_wait.pop(epoch).succeed(payload)
        else:
            for dst in range(self.n_nodes):
                yield from self.net.send(self.id, dst, nb, payload,
                                         tag=("bar", "dep", epoch))
