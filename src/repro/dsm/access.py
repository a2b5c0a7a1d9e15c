"""Application access: the fast path, the fault service (the SIGSEGV
handler, §5.2.3), write-upgrade runs and the fetch of a page from its
home."""

from __future__ import annotations

from repro.sim import Event
from repro.vm import PROT_READ, PROT_WRITE, PROT_RW
from repro.dsm.states import PageState
from repro.sim.probe import (
    CAT_AUDIT, PH_FAULT_FETCH, PH_FAULT_WORK, PH_PAGE_WAIT, bracket, waiting,
)


class AccessMixin:
    """Access checks and fault service of :class:`~repro.dsm.node.DsmNode`."""

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
            elif (st == PageState.INVALID and self.adaptive is not None
                    and self.adaptive.promised(page)):
                yield from self.adaptive.await_frame(page, is_write)
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
                return None
            if not trapped:
                if self.home[page] != self.id:
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

    def _fetch_fault(self, page: int, is_write: bool, t0: float):
        """INVALID -> fetched and installed; False when an invalidation
        raced with the fetch (the caller re-examines the page)."""
        self._set_state(page, PageState.TRANSIENT, "fault")
        yield from self.node.busy_cpu(self.cluster_config.fault_overhead)
        final_prot = PROT_RW if is_write else PROT_READ
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
            if self.home[page] != self.id:
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

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------
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
        if self.adaptive is not None:
            self.adaptive.on_fetch(page)
        pb = self.sim.probe
        if pb is not None and "dsm.page" in pb.heard:
            pb.span("dsm.page", "fetch", t0, node=self.id,
                    page=page, home=home, nbytes=len(data))
        return data
