"""The adaptive-migration accelerator (``DsmConfig.adaptive_migration``;
docs/PERFORMANCE.md "Protocol optimizations"), one object per node.

Two mechanisms share it:

* **byte-weighted home migration** — the barrier master keeps per-page
  EWMA histories of the writers' diff bytes (fed by sized write notices)
  and moves a page's home to a dominant writer, the old home handing its
  copy over in a ``hand`` frame;
* **update push** — the master turns reader interest (pages each node
  reported fetching in its arrival) into a push plan announced in every
  departure.  Homes snapshot the announced pages and push one-way copies;
  a reader faulting on an announced page parks for the frame instead of
  issuing its own fetch — the steady-state invalidate/fault/fetch
  round-trip of producer-consumer pages becomes half a round-trip.

The object only exists when the flag is on (``DsmNode.adaptive`` is None
otherwise); the node calls its hooks from the fault, fetch, barrier and
lock paths.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.sim import Event
from repro.vm import PROT_READ
from repro.dsm.states import KIND_OBJECT, PageState
from repro.sim.probe import PH_FAULT_WORK, PH_PAGE_WAIT, bracket, waiting

#: adaptive migration: EWMA share of a page's write bytes a challenger
#: needs to take the home (the incumbent home's in-place writes are
#: credited one full page per epoch, a natural hysteresis against
#: ping-pong)
MIGRATION_SHARE = 0.5

#: update push: a home keeps pushing a page's fresh copy to a reader for
#: this many barrier epochs after the reader's last real fetch.  A stable
#: consumer re-fetches once per window and is pushed to in between
#: (~1/(N+1) of its faults survive); a reader that stops consuming wastes
#: at most this many pushed frames per page.
PUSH_INTEREST_EPOCHS = 8

#: wire bytes of a push frame header (page id + epoch stamp)
PUSH_HEADER_BYTES = 12

#: the ``home-migrate`` instant's tag for a byte-weighted move
_ADAPTIVE = {"adaptive": True}


class AdaptiveAccel:
    """Migration history, page handoffs and update pushes of one node."""

    def __init__(self, dn):
        self.dn = dn
        # master only: page -> {writer: EWMA diff bytes}
        self._mig_hist: Dict[int, Dict[int, float]] = {}
        # new-home side: page -> event local threads wait on until the
        # old home's copy arrives ...
        self._pending_handoff: Dict[int, Event] = {}
        # ... fetch requests parked meanwhile, page -> [(requester, req_id)]
        self._handoff_waiters: Dict[int, List[tuple]] = {}
        # ... and copies that arrived before this node processed the
        # departure that announces the migration (possible under chaos
        # delays), page -> raw page bytes
        self._handoff_data: Dict[int, bytes] = {}
        # master side: page -> {reader: epoch of its last reported fetch};
        # predicts which nodes will re-fetch a page after a barrier
        # invalidates it (fed by the arrival payloads)
        self._push_interest: Dict[int, Dict[int, int]] = {}
        # reader side: pages this node remote-fetched since its last
        # barrier arrival — reported to the master as interest
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
        # pages invalidated by lock-grant notices since the last barrier
        # departure.  A push snapshotted at that departure is stale with
        # respect to the lock writer's data, so it must not be installed
        # (the lock's happens-before edge promised the newer bytes);
        # cleared at every departure.
        self._lock_invalidated: Set[int] = set()

    # ------------------------------------------------------------------
    # hooks on the fault, fetch and lock paths
    # ------------------------------------------------------------------
    def promised(self, page: int) -> bool:
        """Whether an announced push of *page* to this node is in flight."""
        return page in self._expected_frames

    def await_frame(self, page: int, is_write: bool):
        """Fault on an INVALID page with a one-way frame promised.

        The barrier departure announced an update push for this page: the
        home's frame is already in flight, so waiting for it strictly
        beats issuing our own fetch round-trip.  If a lock-grant notice
        voids the promise, the wake-up re-examines the page and falls
        through to a fetch."""
        dn = self.dn
        t0 = dn._count_fault(page, is_write)
        yield from bracket(
            dn.sim, PH_FAULT_WORK,
            dn.node.busy_cpu(dn.cluster_config.fault_overhead),
        )
        ev = self._expected_frames.get(page)
        if ev is not None and not ev.triggered:
            yield from bracket(dn.sim, PH_PAGE_WAIT, waiting(ev))
        pb = dn.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.span("dsm.page", "fault", t0, node=dn.id,
                    page=page, kind="push-wait")

    def on_fetch(self, page: int) -> None:
        """Report a remote fetch as push interest at the next arrival."""
        self._fetched_since_barrier.add(page)

    def void_push(self, page: int) -> None:
        """A lock-grant notice invalidated *page*: a departure-time push
        must not resurrect it this window; its parked readers fetch."""
        self._lock_invalidated.add(page)
        ev = self._expected_frames.pop(page, None)
        if ev is not None and not ev.triggered:
            ev.succeed()

    def parks_fetch(self, page: int, requester: int, req_id: int) -> bool:
        """True when *page* just migrated here and its copy is in flight:
        the fetch is parked (the comm thread must not block) and served in
        arrival order when the handoff lands."""
        if page not in self._pending_handoff:
            return False
        waiters = self._handoff_waiters.setdefault(page, [])
        if (requester, req_id) not in waiters:
            waiters.append((requester, req_id))
        return True

    # ------------------------------------------------------------------
    # barrier, master side: histories, migration rule, push plan
    # ------------------------------------------------------------------
    def take_fetched(self) -> List[int]:
        """The pages to report as interest in this barrier's arrival."""
        fetched = sorted(self._fetched_since_barrier)
        self._fetched_since_barrier.clear()
        return fetched

    def note_interest(self, fetched, epoch: int) -> None:
        """Fold arrivals' reports (node -> fetched pages) into interest."""
        for node, pages in fetched.items():
            for p in pages:
                self._push_interest.setdefault(p, {})[node] = epoch

    def fold_history(self, bytes_by_page) -> None:
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

    def home_moves(self, writers_by_page):
        """Byte-weighted home migration: a written page moves to a writer
        holding over :data:`MIGRATION_SHARE` of its history."""
        home = self.dn.home
        for page in writers_by_page:
            hist = self._mig_hist.get(page)
            if not hist:
                continue
            total = sum(hist.values())
            best_writer, best = max(hist.items(), key=lambda kv: (kv[1], -kv[0]))
            if best_writer != home[page] and total > 0 and best > MIGRATION_SHARE * total:
                yield page, best_writer, _ADAPTIVE

    def push_plan(self, epoch: int, writers_by_page, new_homes) -> Dict[int, tuple]:
        """Written page -> recent readers about to be invalidated, pushed
        a copy by the (possibly new) home right after departure."""
        dn = self.dn
        plan: Dict[int, tuple] = {}
        for page, writers in sorted(writers_by_page.items()):
            if dn.kind[page] == KIND_OBJECT:
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
            final_home = new_homes.get(page, dn.home[page])
            readers = tuple(
                r for r in sorted(interest)
                if r != final_home and (writers - {r})
            )
            if readers:
                plan[page] = readers
        return plan

    # ------------------------------------------------------------------
    # barrier, every node: the departure
    # ------------------------------------------------------------------
    def ship_handoffs(self, epoch: int, inval_writers, new_homes):
        """Departure, before invalidating: an old home whose page migrates
        to a non-sole writer ships its (current) copy — the new home's own
        copy lacks the other writers' diffs."""
        dn = self.dn
        # lock invalidations of the closed window no longer block installs
        # (stale pushes now fail the epoch check)
        self._lock_invalidated.clear()
        pb = dn.sim.probe
        for page, new_home in new_homes.items():
            if dn.home[page] != dn.id or new_home == dn.id:
                continue
            if inval_writers.get(page, set()) - {new_home}:
                data = dn._page_view(page).tobytes()
                if pb is not None and "dsm.page" in pb.heard:
                    pb.instant("dsm.page", "handoff", node=dn.id,
                               page=page, dst=new_home, epoch=epoch)
                yield from dn.net.send(
                    dn.id, new_home, dn.page_size + 8, (page, data),
                    tag=("dsm", "hand", dn._next_req()),
                )

    def after_departure(self, epoch: int, inval_writers, new_homes, push_plan):
        """Departure, after invalidation: pushes, handoffs, parking points."""
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

    def _await_handoffs(self, inval_writers, new_homes):
        """New-home side of adaptive migration: invalidate the stale local
        copy and block (still inside the barrier) until the old home's
        handoff arrives, so the barrier never returns with a home page
        that cannot serve fetches."""
        dn = self.dn
        # pass 1, no yields: invalidate and register every migrated-to-us
        # page before any suspension, so a fetch arriving mid-install of
        # one page cannot be served a stale copy of another
        pending = []
        for page, new_home in new_homes.items():
            if new_home != dn.id:
                continue
            if not (inval_writers.get(page, set()) - {dn.id}):
                continue  # sole writer: local copy already current
            dn._invalidate(page)
            self._pending_handoff[page] = Event(
                dn.sim, name=f"handoff[{dn.id}:{page}]"
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
            yield from self._land_handoff(page, data)
        if not waits:
            return
        # a new wait point: phase it like any other page-update wait
        yield from bracket(dn.sim, PH_PAGE_WAIT, waiting(*waits))

    def receive_handoff(self, payload):
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
        yield from self._land_handoff(page, data)

    def _land_handoff(self, page: int, data):
        """Install the old home's copy, wake waiters, serve parked fetches."""
        yield from self._install_copy(page, data, "handoff-apply")
        self._pending_handoff.pop(page).succeed()
        for requester, rid in self._handoff_waiters.pop(page, []):
            yield from self.dn._serve_fetch(page, requester, rid)

    def _install_copy(self, page: int, data, label: str):
        """Install a whole-page copy (migration handoff or update push)
        on an INVALID page through the legal Figure-5 chain.

        TRANSIENT is entered before the first yield so application
        threads faulting concurrently (push installs run mid-window) see
        the update in progress and park in BLOCKED instead of starting a
        competing fetch; they are woken when the install completes, same
        as the fetch path.
        """
        dn = self.dn
        assert dn.state[page] is PageState.INVALID, (
            f"{label} for page {page} found state {dn.state[page].name} on {dn.id}"
        )
        dn._set_state(page, PageState.TRANSIENT, "fault")
        yield from dn.node.busy_cpu(dn.cluster_config.diff_apply_overhead)
        yield from dn.node.busy_cpu(dn.cluster_config.mprotect_overhead)
        dn._page_view(page)[:] = np.frombuffer(data, dtype=np.uint8)
        dn._set_state(page, PageState.READ_ONLY, "update-done")
        dn.space.protect(page, PROT_READ)
        if page in dn._pending_inval:
            # a write notice invalidated the page while the install was in
            # its busy windows (lock-grant processing on a sibling thread):
            # the copy is stale — drop it, woken waiters re-fault
            dn._pending_inval.discard(page)
            dn._invalidate(page)
        waiter = dn._page_waiters.pop(page, None)
        if waiter is not None:
            waiter.succeed()
        # any install resolves an expected-frame promise for the page:
        # parked threads wake and re-examine the (now usually READ_ONLY)
        # state; on the stale-install path above they re-fault and fetch
        ev = self._expected_frames.pop(page, None)
        if ev is not None and not ev.triggered:
            ev.succeed()
        pb = dn.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.instant("dsm.page", label, node=dn.id, page=page)

    # ------------------------------------------------------------------
    # update push: home -> predicted re-fetchers
    # ------------------------------------------------------------------
    def _process_push_plan(self, push_plan, epoch: int):
        """Receiver side, inside barrier processing after invalidations:
        install frames that overtook our departure (stash) and register a
        park event for every still-missing announced page, so faults wait
        for the one-way push instead of fetching."""
        dn = self.dn
        for page in sorted(push_plan):
            if dn.id not in push_plan[page]:
                continue
            stash = self._push_stash.pop(page, None)
            if dn.state[page] is not PageState.INVALID:
                continue
            if stash is not None:
                dn.stats.updates_installed += 1
                # consuming a push renews interest: without this, a page
                # served by pushes alone would fall out of the master's
                # interest window and cost one fetch every window
                self._fetched_since_barrier.add(page)
                yield from self._install_copy(page, stash[1], "push-apply")
                continue
            self._expected_frames[page] = Event(
                dn.sim, name=f"pushwait[{dn.id}:{page}]"
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
        dn = self.dn
        pushes = []
        for page in sorted(push_plan):
            if dn.home[page] != dn.id:
                continue
            if (new_homes.get(page) == dn.id) != awaiting_handoff:
                continue
            assert dn.state[page] in (PageState.READ_ONLY, PageState.DIRTY), (
                f"push of page {page} from home {dn.id} in state "
                f"{dn.state[page].name}"
            )
            data = dn._page_view(page).tobytes()
            for r in push_plan[page]:
                if r != dn.id:
                    pushes.append((page, r, data))
        if pushes:
            dn.sim.process(
                self._push_sender(pushes, epoch),
                label=f"push[{dn.id}:{epoch}]",
            )

    def _push_sender(self, pushes, epoch: int):
        """Detached sender: one ``push`` frame per (page, reader) —
        exactly-once at the link layer, dropped by the receiver whenever
        installing it would not be sound."""
        dn = self.dn
        pb = dn.sim.probe
        for page, dst, data in pushes:
            dn.stats.updates_pushed += 1
            if pb is not None and "dsm.page" in pb.heard:
                pb.instant("dsm.page", "push", node=dn.id,
                           page=page, dst=dst, epoch=epoch)
            yield from dn.net.send(
                dn.id, dst, dn.page_size + PUSH_HEADER_BYTES,
                (page, epoch, data), tag=("dsm", "push", dn._next_req()),
            )

    def receive_push(self, payload, src: int):
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
        dn = self.dn
        page, epoch, data = payload
        if dn.kind[page] == KIND_OBJECT or dn._barrier_epoch != epoch + 1:
            return
        if self._departed_epoch < epoch:
            self._push_stash[page] = (epoch, data)
            return
        if (dn.home[page] != src or page in self._lock_invalidated
                or dn.state[page] is not PageState.INVALID):
            return
        dn.stats.updates_installed += 1
        self._fetched_since_barrier.add(page)  # consuming renews interest
        yield from self._install_copy(page, data, "push-apply")
