"""Intra-node synchronisation primitives (pthread emulation).

These model POSIX-thread synchronisation *within one simulated node*: the
ParADE translator replaces intra-node OpenMP synchronisation with pthread
locks (paper §4.2/§4.3), and the runtime's page-state machine uses a
condition variable for the BLOCKED state (§5.2.3).

Inter-node synchronisation is *not* done here — that is the DSM/MPI layer.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.events import Event, SimulationError
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

    def locked_region(self, body):
        """Generator: run generator *body* under the mutex."""
        yield from self.acquire()
        try:
            result = yield from body
        finally:
            self.release()
        return result


class ConditionVar:
    """pthread_cond_t bound to a :class:`Mutex`.

    ``wait`` atomically releases the mutex, suspends, and reacquires before
    returning.  ``notify``/``notify_all`` wake waiters in FIFO order.
    """

    def __init__(self, sim, mutex: Mutex, name: str = "cond"):
        self.sim = sim
        self.mutex = mutex
        self.name = name
        self._waiters: deque = deque()

    def wait(self):
        ev = Event(self.sim, name=f"condwait:{self.name}")
        self._waiters.append(ev)
        self.mutex.release()
        yield ev
        yield from self.mutex.acquire()

    def notify(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()

    def notify_all(self) -> None:
        waiters, self._waiters = self._waiters, deque()
        for ev in waiters:
            ev.succeed()

    @property
    def n_waiting(self) -> int:
        return len(self._waiters)


class Semaphore:
    """Counting semaphore with FIFO wakeup."""

    def __init__(self, sim, value: int = 0, name: str = "sem"):
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self.sim = sim
        self.name = name
        self._value = value
        self._waiters: deque = deque()

    @property
    def value(self) -> int:
        return self._value

    def post(self) -> None:
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._value += 1

    def wait(self):
        if self._value > 0:
            self._value -= 1
            return
            yield  # pragma: no cover - makes this a generator
        ev = Event(self.sim, name=f"semwait:{self.name}")
        self._waiters.append(ev)
        yield ev


class SimBarrier:
    """Intra-node thread barrier: the last of *n* arrivals releases all."""

    def __init__(self, sim, n: int, name: str = "barrier"):
        if n < 1:
            raise ValueError("barrier party count must be >= 1")
        self.sim = sim
        self.n = n
        self.name = name
        self._arrived = 0
        self._gate: Optional[Event] = None
        self.n_cycles = 0

    def arrive(self):
        """Generator: block until all *n* parties have arrived."""
        if self._gate is None:
            self._gate = Event(self.sim, name=f"gate:{self.name}")
        self._arrived += 1
        if self._arrived == self.n:
            gate, self._gate = self._gate, None
            self._arrived = 0
            self.n_cycles += 1
            gate.succeed()
            yield gate
        else:
            yield self._gate


class Latch:
    """One-shot countdown latch."""

    def __init__(self, sim, count: int, name: str = "latch"):
        if count < 0:
            raise ValueError("latch count must be >= 0")
        self.sim = sim
        self.count = count
        self._event = Event(sim, name=f"latch:{name}")
        if count == 0:
            self._event.succeed()

    def count_down(self) -> None:
        if self.count <= 0:
            raise SimulationError("latch already open")
        self.count -= 1
        if self.count == 0:
            self._event.succeed()

    def wait(self) -> Event:
        return self._event

    @property
    def open(self) -> bool:
        return self._event.triggered
