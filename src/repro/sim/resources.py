"""Shared resources with FIFO (optionally prioritised) grant order.

Used to model CPUs (capacity = cores per node), NIC transmit engines
(capacity 1 → serialisation), and pthread mutexes.

A timed occupancy — request, hold for a duration, release — is the
simulator's most frequent operation (one per protocol CPU burst, message
end and busy-wait slice).  :meth:`Resource.execute` runs it as a
kernel-resident :class:`Hold`: the grant is consumed by a kernel callback
instead of a process resume, so the process is resumed once, at the end.
The schedule is that of ``yield request; yield Timeout; release`` — the
grant marker takes the queue slot and sequence number the grant event
would take and its callback schedules the timeout with the next sequence
number; every other process sees the same events in the same order.  The
wait → busy → done phase facts a resumed process would state at those
instants, the hold states itself, as its waiter.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.sim.events import Event, NORMAL, PENDING, SimulationError

_heappush = heapq.heappush


class Preempted(SimulationError):
    """Reserved for future preemptive scheduling experiments."""


class Request(Event):
    """Grant event for a resource request; fires when capacity is assigned."""

    __slots__ = ("resource", "priority", "granted_at")

    def __init__(self, resource: "Resource", priority: int):
        # Event.__init__ inlined (with the name precomputed by the
        # resource): requests are among the hottest event allocations
        self.sim = resource.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.name = resource._req_name
        self.resource = resource
        self.priority = priority

    def _granted(self) -> None:
        self.succeed(self)


class _HoldEntry:
    """Queue entry of a :class:`Hold`: first its grant marker, then its
    timeout.  Quacks like a successful event for the event loop."""

    __slots__ = ("callbacks", "hold")
    _ok = True


def _hold_start(entry: _HoldEntry) -> None:
    """Grant marker processed: the wait is over, start the timed
    occupancy."""
    hold = entry.hold
    sim = hold.sim
    entry.callbacks = hold._end
    duration = hold.duration
    if duration > 0.0:  # never negative: checked where it is set
        _heappush(sim._heap, (sim.now + duration, NORMAL, next(sim._seq), entry))
    else:
        sim._immediate.append((sim.now, NORMAL, next(sim._seq), entry))


def _hold_end(entry: _HoldEntry) -> None:
    """Timeout processed: release, then re-arm the next slice or resume
    the waiters synchronously.  ``again`` runs as the waiting process;
    what it raises fails the hold, so the waiter has it thrown in."""
    hold = entry.hold
    resource = hold.resource
    resource.release(hold)
    again = hold.again
    ok, value = True, None
    if again is not None:
        sim = hold.sim
        sim.active_process = hold.waiter  # None here, in the event loop
        try:
            duration = again()
            if duration is not None:
                if duration < 0:  # an entry in the past would corrupt the schedule
                    raise ValueError(f"negative hold duration {duration!r}")
                hold.duration = duration
                # Resource._submit -> _grant -> Hold._granted inlined: a
                # busy-wait re-arms here once per slice
                users = resource.users
                if len(users) < resource.capacity and not resource._queue:
                    users.add(hold)
                    hold.granted_at = now = sim.now
                    resource.n_grants += 1
                    entry.callbacks = hold._start
                    sim._immediate.append((now, NORMAL, next(sim._seq), entry))
                else:
                    _heappush(resource._queue,
                              (hold.priority, next(resource._seq), hold))
                return
        except Exception as exc:
            ok, value = False, exc
        finally:
            sim.active_process = None
    entry.hold = None  # finished; also unties the hold <-> entry cycle
    hold._ok = ok
    hold._value = value
    callbacks, hold.callbacks = hold.callbacks, None
    for cb in callbacks:
        cb(hold)


def _as_waiter(state):
    """An entry callback that states one phase fact of a profiled hold —
    ``state(hold)`` — as the hold's waiter: in the event loop, where the
    entry's callbacks run, nobody is running."""

    def callback(entry: _HoldEntry) -> None:
        hold = entry.hold
        if hold is not None:  # not finished
            sim = hold.sim
            sim.active_process = hold.waiter
            state(hold)
            sim.active_process = None

    return callback


_HOLD_START = (_hold_start,)
_HOLD_END = (_hold_end,)
# the same around the phase facts of a hold somebody profiles (the last:
# ``again`` re-submitted it); an unobserved hold carries, and pays for, none
_PHASED_START = (_as_waiter(lambda hold: hold._pb.replace(hold.busy_phase)), _hold_start)
_PHASED_END = (_as_waiter(lambda hold: hold._pb.pop()), _hold_end,
               _as_waiter(lambda hold: hold._pb.push(hold.wait_phase)))


class Hold(Request):
    """Kernel-resident burst: occupy one unit of *resource* for *duration*.

    The hold is its own resource request.  A process yields it and is
    resumed once, when the occupancy ends and the unit has been released.
    With *again* set, the end of each occupancy calls ``again()``: a
    returned duration re-requests the resource for another slice (a
    busy-wait loop, a chain of protocol bursts), ``None`` ends the hold,
    an exception fails it.

    With *wait_phase* set and a ``phase`` consumer subscribed, the hold
    brackets itself on the waiter's phase stack: ``push(wait_phase)`` at
    every submit, ``replace(busy_phase)`` at the grant, ``pop`` at the end
    (``busy_phase=None``: the enclosing phase, marked active).

    A process that stops waiting on a hold (interrupt, generator close)
    must :meth:`cancel` it.
    """

    __slots__ = ("duration", "again", "waiter", "_start", "_end", "_pb",
                 "wait_phase", "busy_phase", "_entry")

    def __init__(
        self,
        resource: "Resource",
        duration: float,
        priority: int = 0,
        again: Optional[Callable[[], Optional[float]]] = None,
        wait_phase: Optional[str] = None,
        busy_phase: Optional[str] = None,
    ):
        if duration < 0:
            raise ValueError(f"negative hold duration {duration!r}")
        # Request.__init__ inlined (as it inlines Event.__init__): one hold
        # per burst makes this the hottest allocation of a run
        sim = self.sim = resource.sim
        self.callbacks = []
        self._value = PENDING
        self._ok = None
        self._defused = False
        self.name = resource._req_name
        self.resource = resource
        self.priority = priority
        self.duration = duration
        self.again = again
        #: the process constructing (and about to yield) the hold: the
        #: running thread while ``again`` executes and phases are stated
        self.waiter = sim.active_process
        pb = sim.probe
        if pb is None or wait_phase is None or "phase" not in pb.heard:
            #: the entry's callbacks as grant marker and as timeout
            self._start = _HOLD_START
            self._end = _HOLD_END
        else:
            self._start = _PHASED_START
            self._end = _PHASED_END
            #: the bus the phase facts go to, kept: by the pop the last
            #: subscriber may have left ``sim.probe``
            self._pb = pb
            self.wait_phase = wait_phase
            self.busy_phase = busy_phase
            pb.push(wait_phase)
        entry = self._entry = _HoldEntry()
        entry.hold = self
        resource._submit(self)

    def _granted(self) -> None:
        entry = self._entry
        entry.callbacks = self._start
        sim = self.sim
        sim._immediate.append((sim.now, NORMAL, next(sim._seq), entry))

    def cancel(self) -> None:
        """Abandon the hold in whatever state it is in: leave the queue or
        give the unit back, and close its phase — as the waiter, whoever
        is running.  Its pending queue entry, if any, still counts as an
        event but does nothing."""
        entry = self._entry
        if entry.hold is self:  # neither finished nor cancelled yet
            entry.hold = None
            entry.callbacks = ()
            if self._end is _PHASED_END:
                sim = self.sim
                running, sim.active_process = sim.active_process, self.waiter
                self._pb.pop()
                sim.active_process = running
            self.resource.relinquish(self)


class Resource:
    """Capacity-limited resource.

    Usage from a process::

        req = cpu.request()
        yield req
        ...           # hold the resource
        cpu.release(req)

    or the convenience generator ``yield from cpu.execute(duration)``.
    """

    def __init__(self, sim, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = f"req:{name}"
        self.users: set = set()
        self._queue: list = []
        self._seq = itertools.count()
        # statistics
        self.total_busy_time = 0.0
        self.n_grants = 0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of users currently holding the resource."""
        return len(self.users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        req = Request(self, priority)
        self._submit(req)
        return req

    def _submit(self, req: Request) -> None:
        if len(self.users) < self.capacity and not self._queue:
            self._grant(req)
        else:
            _heappush(self._queue, (req.priority, next(self._seq), req))

    def release(self, request: Request) -> None:
        if request not in self.users:
            raise SimulationError(f"release of non-held request on {self.name}")
        self.users.discard(request)
        self.total_busy_time += self.sim.now - request.granted_at
        while self._queue and len(self.users) < self.capacity:
            _, _, req = heapq.heappop(self._queue)
            self._grant(req)

    def cancel(self, request: Request) -> None:
        """Withdraw a queued (ungranted) request."""
        self._queue = [entry for entry in self._queue if entry[2] is not request]
        heapq.heapify(self._queue)

    def relinquish(self, request: Request) -> None:
        """Give *request* up whatever its state: granted ⇒ release, still
        queued ⇒ cancel.  The one rule for a process that stops waiting."""
        if request in self.users:
            self.release(request)
        else:
            self.cancel(request)

    def _grant(self, req: Request) -> None:
        self.users.add(req)
        req.granted_at = self.sim.now
        self.n_grants += 1
        req._granted()

    # -- convenience ----------------------------------------------------
    def execute(
        self,
        duration: float,
        priority: int = 0,
        wait_phase: Optional[str] = None,
        busy_phase: Optional[str] = None,
        again: Optional[Callable[[], Optional[float]]] = None,
    ):
        """Hold one capacity unit for *duration* virtual seconds; with
        *again*, keep re-requesting for the durations it returns until it
        returns ``None`` (see :class:`Hold`).

        For phase consumers the queue wait is stated as *wait_phase* and
        the occupancy as *busy_phase* (``None``: the enclosing phase,
        marked active).
        """
        hold = Hold(self, duration, priority, again, wait_phase, busy_phase)
        try:
            yield hold
        except BaseException:
            hold.cancel()
            raise

    @property
    def utilization_until_now(self) -> float:
        """Fraction of (capacity × elapsed time) spent busy so far."""
        if self.sim.now <= 0:
            return 0.0
        busy = self.total_busy_time + sum(
            self.sim.now - req.granted_at for req in self.users
        )
        return busy / (self.capacity * self.sim.now)
