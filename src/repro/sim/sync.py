"""Intra-node mutual exclusion (pthread emulation).

:class:`Mutex` models a POSIX-thread mutex *within one simulated node*:
the ParADE translator replaces intra-node OpenMP synchronisation with
pthread locks (paper §4.2/§4.3).  The page-state machine's BLOCKED
state (§5.2.3) needs no condition variable: its waiters park on one
event per page (``DsmNode._page_waiters``).

Inter-node synchronisation is *not* done here — that is the DSM/MPI layer.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.events import SimulationError
from repro.sim.probe import CAT_AUDIT, PH_MUTEX_WAIT, bracket, waiting
from repro.sim.resources import Resource, Request


class Mutex:
    """pthread_mutex_t: FIFO mutual exclusion between processes."""

    def __init__(self, sim, name: str = "mutex"):
        self.sim = sim
        self.name = name
        self._res = Resource(sim, capacity=1, name=name)
        self._holder: Optional[Request] = None
        self.n_acquisitions = 0
        self.n_contended = 0

    @property
    def locked(self) -> bool:
        return self._res.count > 0

    def acquire(self):
        """Generator: ``yield from mutex.acquire()``."""
        if self.locked:
            self.n_contended += 1
        req = self._res.request()
        yield from bracket(self.sim, PH_MUTEX_WAIT, waiting(req))
        self._holder = req
        self.n_acquisitions += 1
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "acquire", key=("mutex", self.name))

    def release(self) -> None:
        if self._holder is None:
            raise SimulationError(f"release of unheld mutex {self.name}")
        pb = self.sim.probe
        if pb is not None and CAT_AUDIT in pb.heard:
            pb.instant(CAT_AUDIT, "release", key=("mutex", self.name))
        holder, self._holder = self._holder, None
        self._res.release(holder)
        # The next queued request (if any) was granted synchronously; record
        # it as the new holder so its owner can release later.
        if self._res.users:
            self._holder = next(iter(self._res.users))
