"""Atomic page update strategies (§5.1, Figure 4).

When a page-based SDSM services a fault it must write the incoming page
into memory the faulting application must not yet see.  Making the
*application* mapping writable opens a race window: another thread can read
the half-updated page without faulting.  The paper's solutions all create a
**second access path** (a system mapping) to the same physical frame so the
application mapping can stay protected until the update commits:

* file mapping (``mmap`` the same file twice),
* System V shared memory (``shmat`` twice),
* a custom ``mdup()`` syscall duplicating page-table entries,
* a forked child process sharing the frames.

``NaiveInPlaceStrategy`` is the broken baseline that flips the application
protection to read-write for the duration of the update.

Strategies charge per-update CPU costs from an :class:`OSProfile`; the
paper observes all four solutions cost about the same on Linux while file
mapping is pathologically slow on AIX 4.3.3 (IBM SP Night Hawk).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.vm.addrspace import AddressSpace, PROT_NONE, PROT_RW


@dataclass(frozen=True)
class OSProfile:
    """Per-OS cost table: strategy name -> (setup_cost, per_update_cost) in
    seconds, on top of the raw page copy."""

    name: str
    costs: Dict[str, tuple]
    #: seconds to copy one byte during the page update (memcpy speed)
    copy_per_byte: float = 6e-10

    def setup_cost(self, strategy: str) -> float:
        return self.costs[strategy][0]

    def update_cost(self, strategy: str) -> float:
        return self.costs[strategy][1]


#: Redhat 8.0 / Linux 2.4.18 SMP (the paper's cluster): all methods comparable.
LINUX_24 = OSProfile(
    name="linux-2.4",
    costs={
        "naive": (0.0, 2.0e-6),
        "file-mapping": (15e-6, 3.0e-6),
        "sysv-shm": (12e-6, 3.0e-6),
        "mdup": (8e-6, 2.5e-6),
        "fork-child": (120e-6, 3.5e-6),
    },
)

#: IBM SP Night Hawk, AIX 4.3.3 PSSP 3.2: file mapping performs poorly (§5.1).
AIX_433 = OSProfile(
    name="aix-4.3.3",
    costs={
        "naive": (0.0, 2.5e-6),
        "file-mapping": (40e-6, 85e-6),
        "sysv-shm": (15e-6, 4.0e-6),
        "mdup": (10e-6, 3.0e-6),
        "fork-child": (300e-6, 4.5e-6),
    },
)

#: every OS cost profile by name (``DsmConfig.os_profile``)
OS_PROFILES = {p.name: p for p in (LINUX_24, AIX_433)}


class SimpleExecutor:
    """Minimal cost-charging context for standalone VM tests: charges time
    as plain simulation delay (no CPU contention)."""

    def __init__(self, sim):
        self.sim = sim

    def busy(self, seconds: float):
        yield self.sim.timeout(seconds)


class UpdateStrategy:
    """Base class; subclasses set :attr:`name` and may override mechanics."""

    name = "abstract"
    #: True if a concurrent application access during the update can slip
    #: through without faulting (the §5.1 race)
    racy = False

    def __init__(self, profile: OSProfile = LINUX_24):
        self.profile = profile
        self.setup_done = False
        self.n_updates = 0

    def setup(self, ex):
        """One-time setup (create the file / shm segment / child)."""
        if not self.setup_done:
            yield from ex.busy(self.profile.setup_cost(self.name))
            self.setup_done = True

    def update_page(self, ex, app_space: AddressSpace, vpage: int, data, final_prot: int):
        """Generator: atomically replace *vpage*'s contents with *data* and
        set the application protection to *final_prot*.

        The default implementation writes through the system path (direct
        frame access) in two halves with a context-switch opportunity in
        between — the application mapping stays protected throughout, so
        the race of Figure 4 cannot bite.
        """
        yield from self.setup(ex)
        self.n_updates += 1
        page_size = app_space.page_size
        cost = self.profile.update_cost(self.name) + page_size * self.profile.copy_per_byte
        frame = app_space.frame_of(vpage)
        view = app_space.phys.frame_view(frame)
        buf = self._as_bytes(data, page_size)

        half = page_size // 2
        yield from ex.busy(cost / 2)
        view[:half] = np.frombuffer(buf[:half], dtype=np.uint8)
        # Deliberate interleaving point: other threads may run here.  With a
        # separate system path the app mapping is still protected, so any
        # concurrent access faults and blocks (TRANSIENT/BLOCKED states).
        yield from ex.busy(cost / 2)
        view[half:] = np.frombuffer(buf[half:], dtype=np.uint8)
        app_space.protect(vpage, final_prot)

    @staticmethod
    def _as_bytes(data, page_size: int) -> bytes:
        buf = bytes(data)
        if len(buf) != page_size:
            raise ValueError(f"page update of {len(buf)} bytes != page size {page_size}")
        return buf


class NaiveInPlaceStrategy(UpdateStrategy):
    """The broken approach: make the *application* mapping writable, copy
    in place, then re-protect.  Between the two protection changes another
    application thread can read torn data without faulting."""

    name = "naive"
    racy = True

    def update_page(self, ex, app_space, vpage, data, final_prot):
        yield from self.setup(ex)
        self.n_updates += 1
        page_size = app_space.page_size
        cost = self.profile.update_cost(self.name) + page_size * self.profile.copy_per_byte
        buf = self._as_bytes(data, page_size)
        frame = app_space.frame_of(vpage)
        view = app_space.phys.frame_view(frame)

        # Open the race window: app mapping becomes writable (and readable).
        app_space.protect(vpage, PROT_RW)
        half = page_size // 2
        yield from ex.busy(cost / 2)
        view[:half] = np.frombuffer(buf[:half], dtype=np.uint8)
        yield from ex.busy(cost / 2)  # <-- torn-read window (T1 in Figure 4)
        view[half:] = np.frombuffer(buf[half:], dtype=np.uint8)
        app_space.protect(vpage, final_prot)


class FileMappingStrategy(UpdateStrategy):
    """mmap() the backing file a second time for the system path."""

    name = "file-mapping"


class SysVShmStrategy(UpdateStrategy):
    """shmget()/shmat() the segment twice; each attach gets its own vaddr."""

    name = "sysv-shm"


class MdupStrategy(UpdateStrategy):
    """The paper's custom ``mdup()`` syscall: duplicate the page-table
    entries of an anonymous region into a detour mapping."""

    name = "mdup"


class ForkChildStrategy(UpdateStrategy):
    """Fork a child sharing the frames (no COW on shared memory); the child
    provides the second access path."""

    name = "fork-child"


_STRATEGIES = {
    cls.name: cls
    for cls in (
        NaiveInPlaceStrategy,
        FileMappingStrategy,
        SysVShmStrategy,
        MdupStrategy,
        ForkChildStrategy,
    )
}

STRATEGY_NAMES = tuple(sorted(_STRATEGIES))


def strategy_by_name(name: str, profile: OSProfile = LINUX_24) -> UpdateStrategy:
    try:
        return _STRATEGIES[name](profile=profile)
    except KeyError:
        raise KeyError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}") from None
