"""The simulator event loop.

Ordering is fully deterministic: events are processed in
``(time, priority, sequence)`` order where *sequence* is a global FIFO
counter.  Two runs of the same program therefore interleave identically.

Zero-delay events — the bulk of the schedule (every ``succeed``, resource
grant, message hand-off, process start and termination) — bypass the
heap: they are appended to per-priority deques, which are already sorted
because appends happen at the current (nondecreasing) ``now`` with an
increasing sequence number and one fixed priority each.  The heap is
left holding only true timeouts, which also makes its operations cheaper.

**Pop-order rule.**  No delay is negative, so nothing is ever scheduled
in the past, and virtual time only advances by popping the heap while
both deques are empty.  Hence *every deque entry is at* ``time == now``,
the urgent front beats the immediate front whenever both exist, and the
next event is the smaller of the heap top and **one** deque front (the
urgent one if present, else the immediate one; the heap top wins only a
same-instant tie on priority/sequence).  That is exactly the
``(time, priority, sequence)`` total order of a pure-heap schedule —
O(1) instead of O(log n) for the common case, same interleaving.

The rule is written once, in :meth:`Simulator._loop`: the fused loop
behind :meth:`~Simulator.run`, :meth:`~Simulator.run_until_complete` and
the single-event :meth:`~Simulator.step`, which pops, dispatches
callbacks and checks for unhandled failures inline with the queues held
in locals.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from functools import partial
from operator import methodcaller
from typing import Any, Optional

from repro.sim.events import Event, Timeout, NORMAL, URGENT, SimulationError
from repro.sim.process import Process

_heappush = heapq.heappush
_heappop = heapq.heappop


class EmptySchedule(SimulationError):
    """Raised by :meth:`Simulator.step` when no events remain."""


class UnhandledProcessError(SimulationError):
    """A process failed and nobody was waiting on it."""

    def __init__(self, label: str, cause: BaseException):
        super().__init__(f"process {label!r} failed: {cause!r}")
        self.cause = cause


class _Never:
    """Stop sentinel of a plain :meth:`Simulator.run`: never processed."""

    callbacks = ()


class _AfterOne:
    """Stop sentinel of :meth:`Simulator.step`: reads as processed from
    the second time the loop looks."""

    looked = False

    @property
    def callbacks(self):
        if self.looked:
            return None
        self.looked = True
        return ()


_NEVER = _Never()


class _Call(partial):
    """Queue entry of :meth:`Simulator.call_later`: the deferred call
    itself.  Quacks like a successful event for the event loop."""

    __slots__ = ("callbacks",)
    _ok = True


#: the callbacks of every :class:`_Call` entry: ``entry()``, made in C —
#: no Python frame between the event loop and the called function
_CALL = (methodcaller("__call__"),)


class Simulator:
    """Deterministic discrete-event simulator.  Observers (recorder,
    sanitizer, profiler, metrics) attach through one attribute,
    :attr:`probe` — see :mod:`repro.sim.probe`."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        #: zero-delay NORMAL / URGENT events; each sorted by construction
        #: and always at ``time == now`` (see module docstring)
        self._immediate: deque = deque()
        self._urgent: deque = deque()
        self._seq = itertools.count()
        self._n_processed = 0
        #: the :class:`repro.sim.probe.ProbeBus` observers subscribe to, or
        #: ``None`` while nothing is subscribed.  Instrumentation
        #: throughout the stack guards on this being None — one load and
        #: one compare is the entire cost of observability when it is off.
        self.probe = None
        #: the :class:`Process` currently advancing its generator; tracing
        #: uses its label as the emitting track ("thread") name.
        self.active_process = None

    # -- factories ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value=value)

    def process(self, generator, label: str = "") -> Process:
        return Process(self, generator, label=label)

    # -- scheduling -----------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0, priority: int = NORMAL) -> None:
        if delay == 0.0:
            if priority == NORMAL:
                self._immediate.append((self.now, NORMAL, next(self._seq), event))
                return
            if priority == URGENT:
                self._urgent.append((self.now, URGENT, next(self._seq), event))
                return
        elif delay < 0:
            # an entry in the past would break the pop-order rule
            raise ValueError(f"negative schedule delay {delay!r}")
        _heappush(self._heap, (self.now + delay, priority, next(self._seq), event))

    def call_later(self, delay: float, fn, *args) -> None:
        """Call ``fn(*args)`` from the event loop *delay* virtual seconds
        from now: one queue entry, keyed and counted exactly like a
        ``timeout(delay)`` whose only callback makes that call — without
        the event object, the callbacks list or a closure."""
        entry = _Call(fn, *args)
        entry.callbacks = _CALL
        if delay == 0.0:
            self._immediate.append((self.now, NORMAL, next(self._seq), entry))
        elif delay < 0:
            raise ValueError(f"negative timeout delay {delay!r}")
        else:
            _heappush(self._heap, (self.now + delay, NORMAL, next(self._seq), entry))

    def peek(self) -> float:
        """Virtual time of the next event, or ``inf`` if none."""
        t = self._heap[0][0] if self._heap else float("inf")
        if self._urgent and self._urgent[0][0] < t:
            t = self._urgent[0][0]
        if self._immediate and self._immediate[0][0] < t:
            t = self._immediate[0][0]
        return t

    def step(self) -> None:
        """Process exactly one event."""
        self._loop(_AfterOne(), None)

    def _loop(self, stop, bound: Optional[float]) -> bool:
        """The fused event loop: process events until *stop* is processed.

        Returns ``False`` once ``stop.callbacks is None``; returns ``True``
        without advancing when the next event lies beyond *bound*; raises
        :class:`EmptySchedule` when the schedule drains first.
        """
        heap = self._heap
        urg = self._urgent
        imm = self._immediate
        pop = _heappop
        # The processed-event counter must be exact whenever a step
        # consumer reads it, so it is batched into a local only for runs
        # that enter the loop with none subscribed.  With one, the loop
        # states ``kernel/step`` only on the events some consumer said it
        # is due at (ProbeBus.step).
        pb = self.probe
        observed = pb is not None and bool(pb.steps)
        n = 0
        try:
            while stop.callbacks is not None:
                if urg:
                    if heap and heap[0] < urg[0]:
                        event = pop(heap)[3]
                    else:
                        event = urg.popleft()[3]
                elif imm:
                    if heap and heap[0] < imm[0]:
                        event = pop(heap)[3]
                    else:
                        event = imm.popleft()[3]
                elif heap:
                    if bound is not None and heap[0][0] > bound:
                        return True
                    self.now, _prio, _seq, event = pop(heap)
                else:
                    raise EmptySchedule()
                callbacks = event.callbacks
                event.callbacks = None
                if observed:
                    self._n_processed += 1
                    pb = self.probe
                    if pb is not None and (
                        self._n_processed >= pb.due_n or self.now >= pb.due_t
                    ):
                        pb.step(self._n_processed, self.now,
                                len(heap) + len(urg) + len(imm))
                else:
                    n += 1
                for cb in callbacks:
                    cb(event)
                if not event._ok and not event._defused:
                    cause = event._value
                    label = getattr(event, "label", event.name or repr(event))
                    raise UnhandledProcessError(label, cause) from cause
            return False
        finally:
            self._n_processed += n

    def run(self, until: Optional[float] = None) -> None:
        """Run until the schedule drains or virtual time exceeds *until*."""
        if until is not None and until < self.now:
            raise ValueError(f"until={until} is in the past (now={self.now})")
        try:
            if self._loop(_NEVER, until):
                self.now = until
        except EmptySchedule:
            pass

    def run_until_complete(self, process: Process, limit: Optional[float] = None) -> Any:
        """Run until *process* terminates; return its value or re-raise.

        *limit* bounds virtual time as a deadlock guard.
        """
        try:
            # a limit already behind `now` cannot be met; past that only a
            # heap pop advances time, which _loop guards
            if (
                limit is not None and self.now > limit and not process.processed
            ) or self._loop(process, limit):
                raise SimulationError(
                    f"virtual time limit {limit} exceeded waiting for {process.label!r}"
                )
        except EmptySchedule:
            raise SimulationError(
                f"deadlock: schedule drained but {process.label!r} never finished"
            ) from None
        except UnhandledProcessError:
            if process.triggered and not process.ok:
                raise process.value
            raise
        if not process.ok:
            raise process.value
        return process.value

    @property
    def events_processed(self) -> int:
        return self._n_processed

