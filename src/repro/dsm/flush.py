"""Release-time page work: twins, diffs shipped to homes (or retained,
homeless), closing an interval, and invalidation.

This is the only module that drops a twin of a written page
(``_close_interval``; ``tests/test_dsm_units.py`` scans for any other).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.sim import Event
from repro.vm import PROT_NONE, PROT_READ
from repro.dsm.diffs import make_twin, compute_diff, diff_nbytes
from repro.dsm.states import KIND_OBJECT, PageState
from repro.dsm.writenotice import WriteNotice
from repro.sim.probe import CAT_AUDIT, PH_FLUSH, bracket

#: wire bytes per record header in a batched diff frame (page id + length)
BATCH_ENTRY_BYTES = 8

#: per-diff byte ceiling for batching (``DsmConfig.batch_notices``): only
#: diffs at or below this size join the per-home batch frame.  Large diffs
#: keep their own frame so the home can overlap applying one diff with
#: receiving the next (coalescing them would serialise the whole frame's
#: transfer before any apply, lengthening the flush critical path for the
#: ~40 B of header it saves).
BATCH_MAX_BYTES = 512


class FlushMixin:
    """Twin/diff/flush/invalidate of :class:`~repro.dsm.node.DsmNode`."""

    def _make_twin(self, page: int) -> None:
        self.twins[page] = make_twin(self._page_view(page))
        self.stats.twins_created += 1
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.instant("dsm.page", "twin", node=self.id, page=page)

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
        comparable across the flag.  The returned notices are sized: they
        carry the diff byte count, the home writer credited one full page
        (only adaptive migration reads the size or pays for it on the
        wire)."""
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
                # the home writer never diffs: credit a full page as the
                # documented incumbent proxy
                sizes[p] = self.page_size
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
        return [WriteNotice(p, self.id, self._interval, sizes[p]) for p in pages]

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
