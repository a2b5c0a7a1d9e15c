"""Shared resources with FIFO (optionally prioritised) grant order.

Used to model CPUs (capacity = cores per node), NIC transmit engines
(capacity 1 → serialisation), and pthread mutexes.

A timed occupancy — request, hold for a duration, release — is the
simulator's most frequent operation (one per protocol CPU burst, message
end and busy-wait slice).  :meth:`Resource.execute` runs it as a
kernel-resident :class:`Hold`, which costs **one** event: whoever grants
the unit pushes the end of the occupancy at ``now + duration``, and the
process is resumed once, when that entry is processed.  The wait → busy →
done phase facts a resumed process would state at those instants, the
hold states itself, as its waiter.

A busy-wait nobody can observe costs **none**: a spin (a hold with
*until*) whose re-arm finds a free unit and nobody queued *parks* — it
keeps the unit and schedules nothing.  It goes back on the schedule, at
its next slice boundary, when somebody could tell the difference: a
submit that finds no free unit, the processing of *until*, a change of
the slice length (:meth:`Resource.unpark`), another spin taking a unit.
Spins whose slices end at one instant take every boundary in the order
their slices were granted; such spins park together, in that order, or
not at all (:meth:`Resource._in_step`).  Against any other entry, a spin
that was parked takes the boundary of the slice it is un-parked in as an
entry scheduled by the un-park — slice by slice, by the slice's start —
so a boundary at exactly ``now`` has not yet passed: what happens at
that instant happens in the old slice.  Only an entry of exactly a
boundary's instant, to the last bit, can tell (docs/PERFORMANCE.md,
"Kernel-resident bursts").
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional

from repro.sim.events import Event, NORMAL, PENDING, SimulationError

_heappush = heapq.heappush


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
    """Queue entry of a :class:`Hold`: the end of its occupancy.  Quacks
    like a successful event for the event loop."""

    __slots__ = ("callbacks", "hold")
    _ok = True


def _hold_end(entry: _HoldEntry) -> None:
    """End of an occupancy: release, then re-arm the next slice or resume
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
            until = hold.until
            duration = again() if until is None or until._value is PENDING else None
            if duration is not None:
                if duration < 0:  # an entry in the past would corrupt the schedule
                    raise ValueError(f"negative hold duration {duration!r}")
                hold.duration = duration
                entry.callbacks = end = hold._end
                if end is _PHASED_END:
                    hold._pb.push(hold.wait_phase)
                # Resource._submit -> _grant -> Hold._granted inlined: a
                # busy-wait re-arms here once per slice
                users = resource.users
                if len(users) < resource.capacity and not resource._queue:
                    users.add(hold)
                    hold.granted_at = now = sim.now
                    resource.n_grants += 1
                    if end is _PHASED_END:
                        hold._pb.replace(hold.busy_phase)
                    if duration > 0.0:
                        if until is not None and not resource._in_step(hold):
                            resource._parked.append(hold)  # nobody to tell: park
                        else:
                            _heappush(sim._heap,
                                      (now + duration, NORMAL, next(sim._seq), entry))
                    else:
                        sim._immediate.append((now, NORMAL, next(sim._seq), entry))
                else:
                    if resource._parked:
                        resource.unpark()
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


def _phase_pop(entry: _HoldEntry) -> None:
    """The occupancy of a profiled hold is over: close its phase, as the
    hold's waiter — in the event loop, where the entry's callbacks run,
    nobody is running."""
    hold = entry.hold
    sim = hold.sim
    sim.active_process = hold.waiter
    hold._pb.pop()
    sim.active_process = None


#: the entry's callbacks; a hold nobody profiles carries, and pays for, no
#: phase fact
_HOLD_END = (_hold_end,)
_PHASED_END = (_phase_pop, _hold_end)


class Hold(Request):
    """Kernel-resident burst: occupy one unit of *resource* for *duration*.

    The hold is its own resource request.  A process yields it and is
    resumed once, when the occupancy ends and the unit has been released.
    With *again* set, the end of each occupancy calls ``again()``: a
    returned duration re-requests the resource for another slice (a chain
    of protocol bursts), ``None`` ends the hold, an exception fails it.

    With *until* also set the hold is a busy-wait: slices back to back
    until the event *until* has been triggered, and ``again()`` is a pure
    function of the slice length — it returns the next slice's (positive)
    duration whenever it is asked, however often.  That is what lets a
    spin *park* (module docstring): the slices nobody saw are booked, by
    the additions a slice-by-slice run makes, when it is put back on the
    schedule.

    With *wait_phase* set and a ``phase`` consumer subscribed, the hold
    brackets itself on the waiter's phase stack: ``push(wait_phase)`` at
    every submit, ``replace(busy_phase)`` at the grant, ``pop`` at the end
    (``busy_phase=None``: the enclosing phase, marked active); a parked
    spin is one busy interval.

    A process that stops waiting on a hold (interrupt, generator close)
    must :meth:`cancel` it.
    """

    __slots__ = ("duration", "again", "until", "waiter", "_end", "_pb",
                 "wait_phase", "busy_phase", "_entry")

    def __init__(
        self,
        resource: "Resource",
        duration: float,
        priority: int = 0,
        again: Optional[Callable[[], Optional[float]]] = None,
        wait_phase: Optional[str] = None,
        busy_phase: Optional[str] = None,
        until: Optional[Event] = None,
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
        self.until = until
        if until is not None and until.callbacks is not None:
            until.callbacks.append(self._until_processed)
        #: the process constructing (and about to yield) the hold: the
        #: running thread while ``again`` executes and phases are stated
        self.waiter = sim.active_process
        entry = self._entry = _HoldEntry()
        entry.hold = self
        pb = sim.probe
        if pb is None or wait_phase is None or "phase" not in pb.heard:
            #: the entry's callbacks, re-armed with every slice
            entry.callbacks = self._end = _HOLD_END
        else:
            entry.callbacks = self._end = _PHASED_END
            #: the bus the phase facts go to, kept: by the pop the last
            #: subscriber may have left ``sim.probe``
            self._pb = pb
            self.wait_phase = wait_phase
            self.busy_phase = busy_phase
            pb.push(wait_phase)
        resource._submit(self)

    def _granted(self) -> None:
        """The unit is this hold's: the wait is over, schedule the end of
        the occupancy."""
        sim = self.sim
        if self._end is _PHASED_END:
            # as the waiter, whoever is running (a releasing process, the
            # event loop, the waiter itself)
            running, sim.active_process = sim.active_process, self.waiter
            self._pb.replace(self.busy_phase)
            sim.active_process = running
        if self.until is not None and self.resource._parked:
            # a spin joining parked ones may fall into step with them (see
            # Resource._in_step); their slices were granted before this one
            self.resource.unpark()
        duration = self.duration
        if duration > 0.0:  # never negative: checked where it is set
            _heappush(sim._heap, (sim.now + duration, NORMAL, next(sim._seq), self._entry))
        else:
            sim._immediate.append((sim.now, NORMAL, next(sim._seq), self._entry))

    def _settle(self, now: float) -> float:
        """Book the slices this parked spin skipped and return the end of
        the one containing *now* — each boundary by the ``start +
        duration`` addition, each slice's grant, busy time and ``again()``
        bookkeeping as a slice-by-slice run makes them.  A boundary at
        exactly *now* has not passed: it is the one returned."""
        resource = self.resource
        again = self.again
        start = self.granted_at
        duration = self.duration
        end = start + duration
        while end < now:
            resource.total_busy_time += end - start
            resource.n_grants += 1
            start = end
            duration = again()
            if not duration > 0.0:  # would never get past `now`
                raise ValueError(f"spin slice of duration {duration!r}")
            end = start + duration
        self.granted_at = start
        self.duration = duration
        return end

    def _unpark(self) -> None:
        """Back on the schedule, at the next slice boundary."""
        sim = self.sim
        _heappush(sim._heap, (self._settle(sim.now), NORMAL, next(sim._seq), self._entry))

    def _until_processed(self, _until: Event) -> None:
        parked = self.resource._parked
        if self in parked:
            parked.remove(self)
            self._unpark()

    def cancel(self) -> None:
        """Abandon the hold in whatever state it is in: leave the queue or
        give the unit back, and close its phase — as the waiter, whoever
        is running.  Its pending queue entry, if any, still counts as an
        event but does nothing; a parked spin settles and schedules
        nothing."""
        entry = self._entry
        if entry.hold is self:  # neither finished nor cancelled yet
            entry.hold = None
            entry.callbacks = ()
            if self._end is _PHASED_END:
                sim = self.sim
                running, sim.active_process = sim.active_process, self.waiter
                self._pb.pop()
                sim.active_process = running
            resource = self.resource
            if self in resource._parked:
                resource._parked.remove(self)
                self._settle(self.sim.now)
            resource.relinquish(self)


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
        #: spins holding a unit off the schedule, in park order (see
        #: module docstring)
        self._parked: list = []
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
            if self._parked:
                self.unpark()
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

    def _in_step(self, hold: "Hold") -> bool:
        """Is another spin on the schedule with its slice to end at the
        very instant *hold*'s does?  Then *hold* stays on the schedule
        too: the two take their common boundaries in sequence order,
        and a parked spin has no sequence number to say it with.  They
        park at the first boundary they share, one after the other."""
        due = hold.granted_at + hold.duration
        parked = self._parked
        for user in self.users:
            if (user is not hold and getattr(user, "until", None) is not None
                    and user not in parked
                    and user.granted_at + user.duration == due):
                return True
        return False

    def unpark(self) -> None:
        """Put every parked spin back on the schedule (in park order), at
        its next slice boundary at or after ``now``.  For whoever is about
        to make the skipped slices observable: a submit that has to queue,
        or a change of what the spin's pure ``again()`` returns — *before*
        the change (:meth:`repro.cluster.node.Node.set_speed_factor`)."""
        for hold in self._parked:
            hold._unpark()
        self._parked.clear()

    # -- convenience ----------------------------------------------------
    def execute(
        self,
        duration: float,
        priority: int = 0,
        wait_phase: Optional[str] = None,
        busy_phase: Optional[str] = None,
        again: Optional[Callable[[], Optional[float]]] = None,
        until: Optional[Event] = None,
    ):
        """Hold one capacity unit for *duration* virtual seconds; with
        *again*, keep re-requesting for the durations it returns until it
        returns ``None`` — with *until* too, a busy-wait: until that event
        has been triggered (see :class:`Hold`).

        For phase consumers the queue wait is stated as *wait_phase* and
        the occupancy as *busy_phase* (``None``: the enclosing phase,
        marked active).
        """
        hold = Hold(self, duration, priority, again, wait_phase, busy_phase, until)
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
