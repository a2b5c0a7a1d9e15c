"""Address spaces: per-process page tables with protections.

Access checks emulate the MMU: a read or write whose protection bits do not
permit it raises :class:`ProtectionFault` — the simulation's SIGSEGV — at
the first offending page.  The DSM fault handler services the same pages
in the same lowest-first order as the signal-handler loop of a page-based
SDSM (§5.2.3), but learns them from one :meth:`AddressSpace.lacking` scan
per access instead of one raised fault per page; :attr:`AddressSpace.downgrades`
tells it when that list may have gone stale.

The page table is stored as two dense numpy arrays (``_prot`` and
``_frames``, indexed by virtual page; frame ``-1`` means unmapped) instead
of a dict of PTE objects, so range checks, contiguity checks and bulk
copies over identity-mapped pools are O(1) numpy operations rather than
per-page Python loops.  ``version`` increments on every mapping or
protection change; callers (the DSM fast path) use it to invalidate
cached "this range is accessible" decisions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.vm.memory import PhysicalMemory

PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_RW = PROT_READ | PROT_WRITE


class ProtectionFault(Exception):
    """SIGSEGV: privileged access violated the page protection."""

    def __init__(self, vpage: int, addr: int, is_write: bool):
        kind = "write" if is_write else "read"
        super().__init__(f"{kind} fault at addr {addr:#x} (vpage {vpage})")
        self.vpage = vpage
        self.addr = addr
        self.is_write = is_write


class AddressSpace:
    """One virtual address space mapping pages onto physical frames."""

    def __init__(self, phys: PhysicalMemory, page_size: Optional[int] = None, name: str = "as"):
        self.phys = phys
        self.page_size = page_size or phys.frame_size
        if self.page_size != phys.frame_size:
            raise ValueError("page size must equal frame size")
        self.name = name
        self._prot = np.zeros(0, dtype=np.int64)
        self._frames = np.full(0, -1, dtype=np.int64)
        #: bumped on every map/unmap/protect; lets the DSM fast path cache
        #: positive access checks and invalidate them precisely
        self.version = 0
        #: bumped only when a page *loses* a right (protect to fewer bits,
        #: unmap, remap): while it stands still, a page found accessible
        #: stays accessible, so a :meth:`lacking` list can only shrink
        self.downgrades = 0
        #: serviced faults: one per raised ProtectionFault, and one per
        #: page the DSM fault service picks from a :meth:`lacking` list
        self.n_faults = 0

    # -- mapping ---------------------------------------------------------
    def _ensure(self, n_pages: int) -> None:
        """Grow the page-table arrays to cover at least *n_pages* pages."""
        if n_pages <= len(self._frames):
            return
        cap = max(n_pages, 2 * len(self._frames), 16)
        prot = np.zeros(cap, dtype=np.int64)
        frames = np.full(cap, -1, dtype=np.int64)
        prot[: len(self._prot)] = self._prot
        frames[: len(self._frames)] = self._frames
        self._prot = prot
        self._frames = frames

    def map(self, vpage: int, frame: int, prot: int = PROT_READ) -> None:
        self.phys._check(frame)
        self._ensure(vpage + 1)
        if self._prot[vpage] & ~prot:
            self.downgrades += 1
        self._frames[vpage] = frame
        self._prot[vpage] = prot
        self.version += 1

    def map_identity(self, n_pages: int, prot: int = PROT_NONE) -> None:
        """Map vpage i -> frame i for i in [0, n_pages)."""
        if n_pages > 0:
            self.phys._check(n_pages - 1)
        self._ensure(n_pages)
        if (self._prot[:n_pages] & ~prot).any():
            self.downgrades += 1
        self._frames[:n_pages] = np.arange(n_pages, dtype=np.int64)
        self._prot[:n_pages] = prot
        self.version += 1

    def unmap(self, vpage: int) -> None:
        if vpage < len(self._frames) and self._frames[vpage] >= 0:
            if self._prot[vpage]:
                self.downgrades += 1
            self._frames[vpage] = -1
            self._prot[vpage] = PROT_NONE
            self.version += 1

    def protect(self, vpage: int, prot: int) -> None:
        """mprotect(2) analogue for a single page."""
        if vpage >= len(self._frames) or self._frames[vpage] < 0:
            raise KeyError(f"vpage {vpage} not mapped in {self.name}")
        if self._prot[vpage] & ~prot:
            self.downgrades += 1
        self._prot[vpage] = prot
        self.version += 1

    def protection(self, vpage: int) -> int:
        if vpage >= len(self._prot):
            return PROT_NONE
        return int(self._prot[vpage])

    def is_mapped(self, vpage: int) -> bool:
        return vpage < len(self._frames) and self._frames[vpage] >= 0

    def frame_of(self, vpage: int) -> int:
        if vpage >= len(self._frames) or self._frames[vpage] < 0:
            raise KeyError(f"vpage {vpage} not mapped in {self.name}")
        return int(self._frames[vpage])

    # -- checked access ----------------------------------------------------
    def check_range(self, addr: int, size: int, write: bool) -> None:
        """Raise ProtectionFault at the first offending page in the range."""
        if size <= 0:
            return
        need = PROT_WRITE if write else PROT_READ
        ps = self.page_size
        first = addr // ps
        last = (addr + size - 1) // ps
        prot = self._prot
        if last < len(prot):
            if last - first < 4:
                # scalar probes; numpy's slice+reduce costs ~6us of fixed
                # overhead, an order of magnitude over a couple of indexed
                # reads — and 1-2 page ranges are the common case
                for vp in range(first, last + 1):
                    if not (prot[vp] & need):
                        break
                else:
                    return
            elif (prot[first : last + 1] & need).all():
                return
        # fault: locate the first offending page for the handler
        for vp in range(first, last + 1):
            p = prot[vp] if vp < len(prot) else PROT_NONE
            if not (p & need):
                self.n_faults += 1
                fault_addr = max(addr, vp * ps)
                raise ProtectionFault(vp, fault_addr, write)

    def lacking(self, addr: int, size: int, write: bool) -> list:
        """The pages of [addr, addr+size) whose protection does not permit
        the access, ascending — every page :meth:`check_range` would fault
        on if each were serviced in turn, from one scan.  Pages beyond the
        table count as ``PROT_NONE``.  Counts no fault."""
        if size <= 0:
            return []
        need = PROT_WRITE if write else PROT_READ
        ps = self.page_size
        first = addr // ps
        last = (addr + size - 1) // ps
        prot = self._prot
        n = len(prot)
        if last - first < 4 or last >= n:  # scalar probes, as in check_range
            return [vp for vp in range(first, last + 1)
                    if vp >= n or not (prot[vp] & need)]
        return (np.flatnonzero((prot[first : last + 1] & need) == 0) + first).tolist()

    def can_access(self, addr: int, size: int, write: bool) -> bool:
        """:meth:`check_range` as a predicate: True iff the whole range is
        accessible.  Never raises and never counts a fault — this is the
        probe the DSM fast path uses before deciding to take the slow
        (generator) fault-service route."""
        if size <= 0:
            return True
        need = PROT_WRITE if write else PROT_READ
        ps = self.page_size
        first = addr // ps
        last = (addr + size - 1) // ps
        prot = self._prot
        if last >= len(prot):
            return False
        if last - first < 4:  # scalar probes, as in check_range
            for vp in range(first, last + 1):
                if not (prot[vp] & need):
                    return False
            return True
        return bool((prot[first : last + 1] & need).all())

    def read(self, addr: int, size: int) -> bytes:
        """Protection-checked read of raw bytes."""
        self.check_range(addr, size, write=False)
        return self._copy_out(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        """Protection-checked write of raw bytes."""
        data = bytes(data)
        self.check_range(addr, len(data), write=True)
        self._copy_in(addr, data)

    def view(self, addr: int, size: int) -> np.ndarray:
        """Zero-copy uint8 view (valid only for ranges within one contiguity
        run of frames; identity mappings always qualify)."""
        start = self._contig_start(addr, size)
        if start is None:
            # distinguish "unmapped" from "mapped but scattered"
            ps = self.page_size
            first = addr // ps
            last = (addr + size - 1) // ps
            for vp in range(first, last + 1):
                if not self.is_mapped(vp):
                    raise KeyError(f"vpage {vp} not mapped in {self.name}")
            raise ValueError(
                f"view [{addr:#x}, +{size}) spans non-contiguous frames in {self.name}"
            )
        return self.phys.buffer[start : start + size]

    # -- unchecked plumbing ------------------------------------------------
    def _contig_start(self, addr: int, size: int) -> Optional[int]:
        """Physical offset of *addr* if [addr, addr+size) lies on one run of
        consecutive frames; None if any page is unmapped or scattered."""
        ps = self.page_size
        first = addr // ps
        last = (addr + size - 1) // ps
        frames = self._frames
        if last >= len(frames):
            return None
        base = frames[first]
        if base < 0:
            return None
        if last != first:
            seg = frames[first : last + 1]
            if not (np.diff(seg) == 1).all():
                return None
        return int(base) * ps + (addr % ps)

    def _copy_out(self, addr: int, size: int) -> bytes:
        start = self._contig_start(addr, size)
        if start is not None:
            return self.phys.buffer[start : start + size].tobytes()
        out = bytearray()
        pos = addr
        remaining = size
        while remaining > 0:
            vp = pos // self.page_size
            off = pos % self.page_size
            n = min(remaining, self.page_size - off)
            view = self.phys.frame_view(self.frame_of(vp))
            out += view[off : off + n].tobytes()
            pos += n
            remaining -= n
        return bytes(out)

    def _copy_in(self, addr: int, data: bytes) -> None:
        start = self._contig_start(addr, len(data))
        if start is not None:
            self.phys.buffer[start : start + len(data)] = np.frombuffer(
                data, dtype=np.uint8
            )
            return
        pos = addr
        i = 0
        while i < len(data):
            vp = pos // self.page_size
            off = pos % self.page_size
            n = min(len(data) - i, self.page_size - off)
            view = self.phys.frame_view(self.frame_of(vp))
            view[off : off + n] = np.frombuffer(data[i : i + n], dtype=np.uint8)
            pos += n
            i += n
